"""Finite categories as explicit composition tables.

Objects and morphisms are plain string identifiers.  A category carries its
identity table and full composition table, checked exhaustively when it is
built and immutable afterwards; every predicate is a deterministic
exhaustive search over sorted identifiers.  Ids reach this module as
strings: ``ioformats`` reads every id in a JSON file and rejects one that
is not a scalar, so nothing here converts an id.

One path builds every category: ``assemble``, the only constructor of
``FinCat``, lays out hom-set blocks ``{payload: id}`` and checks the axioms
once, coding each composite as an ``int32``, its position in its hom-set,
for a numpy associativity sweep per composable triple of objects (a, b, c).
Its composer composes a whole pair of blocks at once: ``compose(x, y, z)``
is an integer array whose entry (i, j) is the position, in the insertion
order of block (x, z), of the i-th payload of (x, y) followed by the j-th of
(y, z).  The injection builders of ``generators`` and
``groth.grothendieck`` compute these arrays with numpy; the small builders
write a per-composite ``compose(p, q)`` and wrap it in ``per_composite``:
``subcategory``, ``group_as_category``, and ``generators``' products, slices,
arrow categories, group powers and relation categories.
``validate_category`` vets raw ids (JSON files, tests) without a Python
step per composite: it numbers the morphisms block-major, so that each
hom-set is one range of codes, reads the composition triples into one
``int32`` array in a single C-level pass, checks them with array
operations, and hands the blocks ``{id: id}`` on with a composer that
slices whole blocks out of one array of composites.

Errors come in a fixed order.  On raw ids: a pair listed twice
(``ValueError``), duplicate objects, the morphisms in input order, the
identities, the composition entries in input order (an unknown id, then a
pair that is not composable), the unit laws by sorted id; then per pair of
blocks in block order the first missing composite (``MissingComposite``),
else the first composite outside its hom-set
(``CompositeEndpointViolation``), as ``per_composite`` names them.  The
array checks only find whether an error exists; a scan then names the
first one.  Then in ``assemble``, per pair of blocks in block order: from
``per_composite``, the first missing composite, else the first payload
outside its hom-set; from any composer, the first position outside the
target block (``CompositeEndpointViolation``).  Then the identities and
unit laws, and the first non-associative triple in the order (a, b), c, d,
(f, g, h).

Associativity is decided by Light's test (Clifford and Preston, *The
Algebraic Theory of Semigroups* I, 1961, §1.2) on a generating set S.  Call
g middle-associative when (f;g);h = f;(g;h) for all composable f and h.
Identities are, by the unit laws, which are checked first.  If b and c are
middle-associative and composable, so is b;c:

    (f;(b;c));h = ((f;b);c);h = (f;b);(c;h) = f;(b;(c;h)) = f;((b;c);h),

using b, c, b, c in turn.  So the middle-associative morphisms are closed
under composition, and when S with the identities generates every
morphism, the category is associative exactly when every g in S is
middle-associative.  ``assemble`` chooses S deterministically (see
``_generators``) and sweeps only the triples with a middle morphism in S.
If that sweep fails, the full sweep runs, so the error names the same first
non-associative triple as a sweep over every triple.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field

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
    isomorphism to its (unique) two-sided inverse.  ``generators`` is the
    sorted tuple of Light's generating set S, which with the identities
    generates every morphism under composition (see ``_generators``).
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
    generators: tuple
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


class _Codes(dict):
    """Morphism ids to codes.  An id that names no morphism gets the next
    free code, so a composition column is coded in one C-level pass and two
    entries name the same pair exactly when their codes agree."""

    def __missing__(self, key):
        self[key] = code = len(self)
        return code


def _no_repeated_pair(pairs):
    """Raise ``ValueError`` for the first of ``pairs`` that an earlier one
    repeats: keeping either entry would make the verdict depend on their
    order."""
    seen = set()
    pair = next((p for p in pairs if p in seen or seen.add(p)), None)
    if pair is not None:
        raise ValueError("composition lists %r twice" % (pair,))


def _vet_ids(objects, morphisms, identity):
    """The sorted objects, the endpoints and the identities of a category
    given by raw ids, each object and morphism id interned once."""
    obs = tuple(sorted(map(sys.intern, objects)))
    if len(set(obs)) != len(obs):
        raise CategoryError("duplicate object identifiers")
    obset = set(obs)

    src, tgt = {}, {}
    for mid, s, t in morphisms:
        mid, s, t = sys.intern(mid), sys.intern(s), sys.intern(t)
        if mid in src:
            raise CategoryError("duplicate morphism identifier %r" % mid)
        if s not in obset:
            raise UnknownObject("morphism %r has unknown source %r" % (mid, s))
        if t not in obset:
            raise UnknownObject("morphism %r has unknown target %r" % (mid, t))
        src[mid], tgt[mid] = s, t

    ident = {}
    for x in obs:
        if x not in identity:
            raise MissingIdentity("object %r has no identity morphism" % x)
        i = identity[x]
        if i not in src:
            raise MissingIdentity("identity %r of %r is not a morphism" % (i, x))
        if src[i] != x or tgt[i] != x:
            raise MissingIdentity(
                "identity %r of %r has endpoints (%r, %r)" % (i, x, src[i], tgt[i])
            )
        ident[x] = i
    for x in identity:
        if x not in obset:
            raise UnknownObject("identity given for unknown object %r" % (x,))
    return obs, src, tgt, ident


def validate_category(objects, morphisms, identity, composition) -> FinCat:
    """Vet a category given by raw ids, then build it with ``assemble``.

    ``morphisms`` is an iterable of ``(id, src, tgt)`` triples, ``identity``
    maps objects to morphism ids, ``composition`` is an iterable of
    ``(first, then, equals)`` triples, read once; composites with an
    identity on either side may be omitted, the unit laws force them.  Ids
    are strings, each object and morphism id interned once.  A pair listed
    twice raises ``ValueError``, before any other error.  The table follows
    block order, not input order.

    The morphisms are coded block-major, by hom-set in block order and then
    by id, so each hom-set is one range of codes and the morphisms out of
    an object are one range too.  The composition is coded in one pass, and
    every composable pair (f, g) gets a cell: the cells of f are a row, one
    per morphism out of tgt f, so the rows of a hom-set (x, y) are a matrix
    whose columns for z are the composer's array for (x, y, z).  The checks
    are array operations; when one fails, a scan names the error that the
    order in the module docstring puts first.
    """
    try:
        obs, src, tgt, ident = _vet_ids(objects, morphisms, identity)
    except CategoryError:
        _no_repeated_pair((f, g) for f, g, _ in composition)
        raise
    return assemble(ident, *_coded_blocks(obs, src, tgt, ident, composition))


def _coded_blocks(obs, src, tgt, ident, composition):
    """The blocks ``{id: id}`` and their composer, for ``assemble``, of a
    category whose ids ``_vet_ids`` has vetted, once ``composition`` passes
    the checks that ``validate_category`` makes of it."""
    by_block = sorted(src, key=lambda m: (src[m], tgt[m], m))
    n = len(by_block)
    code = _Codes(zip(by_block, itertools.count()))
    flat = np.fromiter(
        map(code.__getitem__, itertools.chain.from_iterable(composition)), np.int32
    )
    if len(flat) % 3:
        raise ValueError("composition entries are not (first, then, equals) triples")
    entries = flat.reshape(-1, 3)
    first, then, equals = entries.T
    names = list(code)

    def pairs():
        return zip(map(names.__getitem__, first.tolist()), map(names.__getitem__, then.tolist()))

    # Object numbers of the endpoints of each code; an unknown id gets -1 as
    # source and -2 as target, so it is composable with nothing.
    number = {x: i for i, x in enumerate(obs)}
    s_of = np.full(len(names), -1, np.int32)
    t_of = np.full(len(names), -2, np.int32)
    s_of[:n] = [number[src[m]] for m in by_block]
    t_of[:n] = [number[tgt[m]] for m in by_block]

    bad = (t_of[first] != s_of[then]) | (equals >= n)
    if bad.any():
        _no_repeated_pair(pairs())
        f, g, h = (names[c] for c in entries[int(np.argmax(bad))].tolist())
        unknown = [m for m in (f, g, h) if m not in src]
        if unknown:
            raise UnknownMorphism("composition table mentions %r" % unknown[0])
        raise NonComposablePairInTable((f, g))

    # The cells of f, one per morphism out of tgt f, start at row[f]; the
    # cell of (f, g) is g's offset among the morphisms out of src g, which
    # start at code out[src g].
    width = np.bincount(s_of[:n], minlength=len(obs))
    out = np.concatenate(([0], np.cumsum(width)[:-1]))
    row = np.concatenate(([0], np.cumsum(width[t_of[:n]])))

    def cell(f, g):
        return row[f] + (g - out[s_of[g]])

    at = cell(first, then)
    if len(at) and np.bincount(at).max() > 1:
        _no_repeated_pair(pairs())

    unit = np.array([code[ident[x]] for x in obs], np.int32)
    is_unit = np.zeros(n, bool)
    is_unit[unit] = True
    if ((is_unit[first] & (equals != then)) | (is_unit[then] & (equals != first))).any():
        given = entries[is_unit[first] | is_unit[then]].tolist()
        given = {(names[f], names[g]): names[h] for f, g, h in given}
        for f in sorted(src):
            for pair in ((ident[src[f]], f), (f, ident[tgt[f]])):
                if given.get(pair, f) != f:
                    raise UnitViolation((*pair, given[pair]))

    layout = np.full(row[-1], -1, np.int32)
    layout[at] = equals
    c = np.arange(n, dtype=np.int32)
    layout[cell(unit[s_of[:n]], c)] = c
    layout[cell(c, unit[t_of[:n]])] = c

    blocks, start = {}, {}
    for i, m in enumerate(by_block):
        xy = (src[m], tgt[m])
        if xy not in blocks:
            blocks[xy], start[xy] = {}, i
        blocks[xy][m] = m

    def cells(a, x, y, z):
        """The cells of ``a`` for f: x→y then g: y→z, one row per f."""
        b, w, o = start[(x, y)], width[number[y]], start[(y, z)] - out[number[y]]
        rows = a[row[b] : row[b] + len(blocks[(x, y)]) * w].reshape(-1, w)
        return rows[:, o : o + len(blocks[(y, z)])]

    misplaced = (s_of[equals] != s_of[first]) | (t_of[equals] != t_of[then])
    if misplaced.any() or (layout < 0).any():
        wrong = np.zeros(len(layout), bool)
        wrong[at[misplaced]] = True
        for (x, y) in blocks:
            for (y2, z) in blocks:
                if y2 != y:
                    continue
                got, moved = cells(layout, x, y, z), cells(wrong, x, y, z)
                for err, hit in ((MissingComposite, got < 0), (CompositeEndpointViolation, moved)):
                    if hit.any():
                        i, j = map(int, np.argwhere(hit)[0])
                        f, g = by_block[start[(x, y)] + i], by_block[start[(y, z)] + j]
                        raise err((f, g) if err is MissingComposite else (f, g, names[got[i, j]]))

    def compose(x, y, z):
        """Entry (i, j) is the code of the i-th f: x→y then the j-th g: y→z,
        less the first code of hom(x, z): its position there."""
        return cells(layout, x, y, z) - start[(x, z)]

    return blocks, compose


def assemble(identities: dict, blocks: dict, compose) -> FinCat:
    """Lay out and check the category whose hom-sets are ``blocks``.

    ``blocks`` maps (x, y) to ``{payload: morphism id}`` and ``identities``
    maps each object to the payload of its identity.  ``compose(x, y, z)``
    composes the blocks (x, y) and (y, z): an integer array of shape
    (|blocks[(x, y)]|, |blocks[(y, z)]|) whose entry (i, j) is the position,
    in the insertion order of ``blocks[(x, z)]``, of the i-th payload of
    (x, y) followed by the j-th of (y, z).  Pairs of blocks are composed
    once, in block order, which fixes the table's order; each position is
    mapped to its code in hom(x, z), which gives its table entry and its
    cell in ``rows``.  After an unknown endpoint or a repeated id, errors
    are the composer's own (see ``per_composite``), then per pair of blocks
    ``CompositeEndpointViolation((f, g, position))`` for the first position
    outside block (x, z); then ``MissingIdentity``, ``UnitViolation`` and
    ``AssociativityViolation``.
    """
    blocks = {xy: block for xy, block in blocks.items() if block}
    src, tgt = {}, {}
    for (x, y), block in blocks.items():
        if x not in identities or y not in identities:
            raise UnknownObject("hom-set block %r has an unknown endpoint" % ((x, y),))
        for m in block.values():
            if m in src:
                raise CategoryError("duplicate morphism identifier %r" % m)
            src[m], tgt[m] = x, y
    homs = {xy: tuple(sorted(block.values())) for xy, block in blocks.items()}

    # The morphisms out of b are laid out by target d, then code: hom(b, d)
    # starts at column offset[(b, d)] of width[b].  rows[(a, b)] holds at row
    # i and the column of g the code of f_i;g in hom(a, tgt g).
    outs, offset, width = {}, {}, {}
    for (b, d) in sorted(homs):
        outs.setdefault(b, []).append(d)
        offset[(b, d)] = width.get(b, 0)
        width[b] = offset[(b, d)] + len(homs[(b, d)])
    ids, names, order, later = {}, {}, {}, {}  # later[y]: the blocks out of y, in block order
    for (y, z), qs in blocks.items():
        pos = {m: i for i, m in enumerate(homs[(y, z)])}
        ids[(y, z)] = list(qs.values())
        names[(y, z)] = np.array(ids[(y, z)], object)
        order[(y, z)] = np.fromiter(map(pos.__getitem__, ids[(y, z)]), np.int32, len(qs))
        later.setdefault(y, []).append((z, offset[(y, z)] + order[(y, z)]))

    table, rows = {}, {}
    for (x, y), pids in ids.items():
        r = rows[(x, y)] = np.empty((len(pids), width.get(y, 0)), np.int32)
        at_rows = order[(x, y)][:, None]
        for z, cols in later.get(y, ()):
            at, qids, n = np.asarray(compose(x, y, z)), ids[(y, z)], len(ids.get((x, z), ()))
            if at.min() < 0 or at.max() >= n:
                i, j = map(int, np.argwhere((at < 0) | (at >= n))[0])
                raise CompositeEndpointViolation((pids[i], qids[j], int(at[i, j])))
            table.update(zip(itertools.product(pids, qids), names[(x, z)][at.ravel()]))
            r[at_rows, cols] = order[(x, z)][at]

    identity = {}
    for x in sorted(identities):
        identity[x] = blocks.get((x, x), {}).get(identities[x])
        if identity[x] is None:
            raise MissingIdentity("object %r has no identity morphism" % x)
    mors = tuple(sorted(src))
    for f in mors:
        for pair in ((identity[src[f]], f), (f, identity[tgt[f]])):
            if table[pair] != f:
                raise UnitViolation((*pair, table[pair]))

    # stack[c] holds rows[(b, c)] for each b into c in turn, with each code
    # of g;h in hom(b, d) moved to its column among the morphisms out of b:
    # these rows, shifted[(b, c)], index the columns of rows[(a, b)].
    into, stack, shifted = {}, {}, {}
    for (b, c) in sorted(homs):
        into.setdefault(c, []).append(b)
    for c, bs in into.items():
        stack[c] = np.empty((sum(len(homs[(b, c)]) for b in bs), width[c]), np.int32)
        i = 0
        for b in bs:
            shift = np.concatenate(
                [np.full(len(homs[(c, d)]), offset[(b, d)], np.int32) for d in outs[c]]
            )
            r = shifted[(b, c)] = stack[c][i : i + len(homs[(b, c)])]
            np.add(rows[(b, c)], shift, out=r)
            i += len(r)
    units = {x: homs[(x, x)].index(identity[x]) for x in identity}
    gens = _generators(homs, offset, width, units, into, stack, shifted)
    _check_associativity(homs, outs, offset, rows, shifted, gens)

    inverses = {}
    for f in mors:
        x, y = src[f], tgt[f]
        for g in homs.get((y, x), ()):
            if table[(f, g)] == identity[x] and table[(g, f)] == identity[y]:
                inverses[f] = g
                break

    objects, id_mors = tuple(identity), frozenset(identity.values())
    S = tuple(sorted(homs[bc][i] for bc, codes in gens.items() for i in codes.tolist()))
    return FinCat(objects, mors, src, tgt, identity, table, homs, inverses, id_mors, S)


def per_composite(blocks: dict, compose):
    """The composer, for ``assemble`` over ``blocks``, of a per-composite
    ``compose(p, q)``: the payload of p: x→y then q: y→z, or None if
    missing (None is never a payload).  A pair of blocks raises
    ``MissingComposite((f, g))`` for its first missing composite, else
    ``CompositeEndpointViolation((f, g, payload))`` for the first payload
    outside ``blocks[(x, z)]``."""
    positions = {}

    def composer(x, y, z):
        pos = positions.get((x, z))
        if pos is None:
            pos = positions[(x, z)] = {p: i for i, p in enumerate(blocks.get((x, z), ()))}
        ps, qs = blocks[(x, y)], blocks[(y, z)]
        try:
            made = itertools.starmap(compose, itertools.product(ps, qs))
            at = np.fromiter(map(pos.__getitem__, made), np.int32, len(ps) * len(qs))
        except KeyError:
            made = [compose(p, q) for p in ps for q in qs]
            pairs = list(itertools.product(ps.values(), qs.values()))
            if None in made:
                raise MissingComposite(pairs[made.index(None)]) from None
            k = next(k for k, h in enumerate(made) if h not in pos)
            raise CompositeEndpointViolation((*pairs[k], made[k])) from None
        return at.reshape(len(ps), len(qs))

    return composer


def subcategory(C: FinCat, objects, morphisms) -> FinCat:
    """The subcategory of ``C`` on ``objects`` and ``morphisms``, which must
    hold the identities of ``objects`` and be closed under composition."""
    blocks = {}
    for m in morphisms:
        blocks.setdefault((C.src[m], C.tgt[m]), {})[m] = m
    return assemble(
        {x: C.id_of(x) for x in objects},
        blocks,
        per_composite(blocks, C.comp),
    )


_SWEEP_CELLS = 1 << 20  # composable triples compared per numpy round


def _generators(homs, offset, width, units, into, stack, shifted):
    """The generating set S of Light's test, as ``{(b, c): codes}``: with
    the identities, S generates every morphism under composition.

    S starts as every non-identity that is not a composite of two
    non-identities, which any generating set holds.  While some morphism is
    not made, the least one by (hom-set size, block, code) joins S.  Each
    addition is closed under composition incrementally: only the newly made
    morphisms are composed with what is made, on either side, until nothing
    new appears.  A morphism is made when its bit is set in a mask over all
    of them, laid out by source x from ``base[x]`` on as the columns of
    ``rows[(x, ·)]``; ``units[x]`` is the code of the identity of x.
    """
    base, n = {}, 0
    for x, w in width.items():
        base[x], n = n, n + w
    # Row r of stack[y] is the morphism at bit bits[y][r].  Its source's bits
    # start at starts[y][r], so an entry e of that row, a column of the
    # morphisms out of the source, is the composite at bit starts[y][r] + e.
    # The morphism at bit k has target number tgt_of[k] and is row row_of[k].
    objects = list(width)
    bits, starts = {}, {}
    tgt_of, row_of = np.empty(n, np.int32), np.empty(n, np.int32)
    for k, y in enumerate(objects):
        xs, sizes = into[y], [len(homs[(x, y)]) for x in into[y]]
        bits[y] = np.concatenate(
            [np.arange(m, dtype=np.int32) + base[x] + offset[(x, y)] for x, m in zip(xs, sizes)]
        )
        starts[y] = np.repeat(np.array([base[x] for x in xs], np.int32), sizes)
        tgt_of[bits[y]] = k
        row_of[bits[y]] = np.arange(len(bits[y]))
    src_of = np.repeat(np.arange(len(objects)), list(width.values()))
    unit = {x: base[x] + offset[(x, x)] + u for x, u in units.items()}

    split = np.zeros(n, bool)  # the composites of two non-identities
    for (x, y), r in shifted.items():
        cut, mine = unit[y] - base[y], split[base[x] : base[x] + width[x]]
        for part in (r,) if x != y else (r[: units[x]], r[units[x] + 1 :]):
            mine[part[:, :cut]] = True
            mine[part[:, cut + 1 :]] = True
    made = ~split
    made[list(unit.values())] = False
    gens = made.copy()
    made[list(unit.values())] = True

    def close(fresh):
        while True:
            got = np.zeros(n, bool)
            new = np.flatnonzero(fresh)
            for k in set(tgt_of[new].tolist()):
                y = objects[k]
                r = row_of[new[tgt_of[new] == k]]
                got[stack[y][r][:, made[base[y] : base[y] + width[y]]] + starts[y][r, None]] = True
            for k in set(src_of[new].tolist()):
                x = objects[k]
                r = made[bits[x]]
                got[stack[x][:, fresh[base[x] : base[x] + width[x]]][r] + starts[x][r, None]] = True
            fresh = got & ~made
            if not fresh.any():
                return
            made[fresh] = True

    close(gens)
    for m, (b, c) in sorted((len(h), bc) for bc, h in homs.items()):
        o = base[b] + offset[(b, c)]
        while True:
            free = np.flatnonzero(~made[o : o + m])
            if not free.size:
                break
            fresh = np.zeros(n, bool)
            fresh[o + free[0]] = made[o + free[0]] = gens[o + free[0]] = True
            close(fresh)

    out = {}
    for (b, c), h in homs.items():
        o = base[b] + offset[(b, c)]
        codes = np.flatnonzero(gens[o : o + len(h)])
        if codes.size:
            out[(b, c)] = codes
    return out


def _check_associativity(homs, outs, offset, rows, shifted, gens=None):
    """Associativity check on the ``int32`` codes of ``rows``.

    One sweep per (a, b, c), (a, b) sorted, then c, covers every d at once:
    (f;g);h, read from ``rows[(a, c)]`` at the rows that L[a, b, c] (the
    columns for c of ``rows[(a, b)]``) gives, must equal f;(g;h), read from
    ``rows[(a, b)]`` at the columns ``shifted[(b, c)]`` gives for g;h.  With
    ``gens``, only the g in ``gens[(b, c)]`` are swept and a (b, c) without
    one is skipped (Light's test, see the module docstring); a failure there
    reruns the full sweep.  A failing (a, b, c) of the full sweep is
    rescanned d by d, so the ``AssociativityViolation`` names the first
    triple in the order (a, b), c, d, (f, g, h).
    """
    for (a, b) in sorted(homs):
        r_ab = rows[(a, b)]
        n1 = len(r_ab)
        for c in outs.get(b, ()):
            cols = slice(None) if gens is None else gens.get((b, c))
            if cols is None:
                continue
            r_ac = rows[(a, c)]
            o, n2 = offset[(b, c)], len(homs[(b, c)])
            l_abc = r_ab[:, o : o + n2][:, cols]
            s = shifted[(b, c)][cols].ravel()
            chunk = max(1, _SWEEP_CELLS // len(s))
            for i0 in range(0, n1, chunk):
                i1 = min(n1, i0 + chunk)
                left = np.take(r_ac, l_abc[i0:i1], axis=0).reshape(i1 - i0, -1)
                right = np.take(r_ab[i0:i1], s, axis=1)
                if not np.array_equal(left, right):
                    if gens is None:
                        _raise_first_violation(homs, outs, offset, rows, a, b, c)
                    _check_associativity(homs, outs, offset, rows, shifted)
                    raise CategoryError("internal error: Light's test failed, the full sweep held")


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
