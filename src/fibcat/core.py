"""Finite categories as integer codings of their composites.

Objects and morphisms are plain string identifiers.  A category is its
``Coding``: the code of each morphism, one ``int32`` cell per composable
pair holding the code of its composite, and the codes of each object's
identity, of each morphism's inverse and of Light's generating set S.  It
is checked exhaustively when it is built and immutable afterwards, and its
string fields (endpoints, inverses, S) are read once off the coding; every
predicate is a deterministic exhaustive search over sorted identifiers.
Ids reach this module as strings: ``ioformats`` reads every id in a JSON
file and rejects one that is not a scalar, so nothing here converts an id.

Morphisms are coded block-major, by hom-set in sorted (src, tgt) order and
then by id, and each code f has one cell per morphism out of tgt f.
``from_cells`` is the one way in: given the identities and the hom-sets, it
hands a fresh coding to its caller's ``fill``, and then the same checks
(``_checked``) read the cells, record the identities, inverses and S on the
coding and build the ``FinCat``.  No library path spells the composites out
as strings: ``FinCat.table`` is derived from the cells only when read.
These builders fill the cells:

* ``from_parts`` lays out blocks ``{parts: id}``, each morphism listed by
  the codes of its components in the codings of some factor categories,
  and composes them on the factors' cells: ``generators``' products and
  group powers, slices (the triangle's h), arrow categories (the square's
  u and v) and relation categories (no parts).
* ``generators``' injection builders rank the images of whole pairs of
  blocks by lookup; ``subcategory`` gathers its parent's cells.
* ``groups.validate_group`` writes a group's table into the cells of its
  one-object groupoid.
* ``validate_category`` vets raw ids (JSON files, tests) without a Python
  step per composite: it reads the composition triples into one ``int32``
  array in a single C-level pass, checks them with array operations and
  writes them straight into the cells.
* ``groth.grothendieck`` writes each cell of a total category from the
  composition formula of the Grothendieck construction (see ``groth``).

Errors come in a fixed order.  On raw ids: a pair listed twice
(``ValueError``), duplicate objects, the morphisms in input order, the
identities, the composition entries in input order (an unknown id, then a
pair that is not composable), the unit laws by sorted id; then per pair of
blocks in block order the first missing composite (``MissingComposite``),
else the first composite outside its hom-set
(``CompositeEndpointViolation``).  The array checks only find whether an
error exists; a scan then names the first one.  Then in the injection
builders, per pair of blocks in block order, the first position outside
the target block (``CompositeEndpointViolation``); in ``from_parts``,
``subcategory`` and ``groth.grothendieck``, the first cell in cell order
whose composite is not there (``CompositeEndpointViolation``).  Then the
identities and unit laws, and the first non-associative triple in the
order (a, b), c, d, (f, g, h).

Associativity is decided by Light's test (Clifford and Preston, *The
Algebraic Theory of Semigroups* I, 1961, §1.2) on a generating set S.  Call
g middle-associative when (f;g);h = f;(g;h) for all composable f and h.
Identities are, by the unit laws, which are checked first.  If b and c are
middle-associative and composable, so is b;c:

    (f;(b;c));h = ((f;b);c);h = (f;b);(c;h) = f;(b;(c;h)) = f;((b;c);h),

using b, c, b, c in turn.  So the middle-associative morphisms are closed
under composition, and when S with the identities generates every
morphism, the category is associative exactly when every g in S is
middle-associative.  The checks choose S deterministically and greedily,
hom-set by hom-set up the preorder of objects (see ``_generators``), and
sweep only the triples with a middle morphism in S, one hom-set (b, c) that
holds some of S at a time: its g in S, every f into b and every h out of c
at once, so the numpy rounds follow the hom-sets of S, not the triples of
objects (a, b, c).  If that sweep fails, the same loop sweeps every
morphism as g, so the error names the same first non-associative triple as
a sweep over every triple.
"""

from __future__ import annotations

import functools
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


class TooManyCells(CategoryError):
    """The cells of a coding do not fit in memory."""


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
    """A finite category: its ``coding`` (see ``Coding``) and the string
    views read off it once, when it is checked.

    ``homs`` maps ``(x, y)`` to the sorted tuple of morphisms x→y, ``src``
    and ``tgt`` map each morphism to its endpoints, ``inverses`` maps every
    isomorphism to its (unique) two-sided inverse and ``generators`` is the
    sorted tuple of Light's generating set S, which with the identities
    generates every morphism under composition (see ``_generators``).
    ``table`` maps each composable pair ``(f, g)`` to the composite "f then
    g" (g∘f in applicative order); no library path reads it.  It is made
    from the cells the first time it is read and kept, in cell order, which
    is the order of (src f, tgt f, f, tgt g, g), so it depends on the
    category alone, not on how it was built.
    """

    objects: tuple
    morphisms: tuple
    src: dict
    tgt: dict
    identity: dict
    homs: dict
    inverses: dict
    identity_morphisms: frozenset
    generators: tuple
    coding: "Coding"
    _caches: dict = field(default_factory=dict, compare=False, repr=False)

    def __repr__(self):
        return "FinCat(%d objects, %d morphisms)" % (
            len(self.objects),
            len(self.morphisms),
        )

    @functools.cached_property
    def table(self) -> dict:
        return _table(self.coding)

    def comp(self, first: str, then: str) -> str:
        """Composite of ``first`` followed by ``then``, read off the cells;
        a pair that is not composable raises ``KeyError``."""
        # ~1.6 us a call (timeit on FI_3, 2-vCPU Xeon): for one composite at a
        # time; many at once are one gather of the cells, as in slice_indexed.
        K = self.coding
        f, g = K.code[first], K.code[then]
        if K.tgt[f] != K.src[g]:
            raise KeyError((first, then))
        return K.ids[K.cells[K.cell(f, g)]]

    def hom(self, x: str, y: str) -> tuple:
        return self.homs.get((x, y), ())

    def hom_codes(self, x: str, y: str) -> np.ndarray:
        """The codes of hom(x, y) in ``coding``, in id order."""
        first = self.coding.start.get((x, y), 0)
        return np.arange(first, first + len(self.hom(x, y)))

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


_ROUND_CELLS = 1 << 16  # cells read per numpy round


@dataclass(frozen=True, eq=False, repr=False)
class Coding:
    """A category as integers, made once by ``from_cells`` for every
    builder: the one place its composites, identities, inverses and
    generating set live.

    Codes are block-major: by hom-set in sorted (src, tgt) order, then by
    id, so each hom-set is one range of codes and so are the morphisms out
    of an object.  Objects are numbered by their place in ``objects``.  Each
    code f has one cell per morphism out of tgt f, from ``row[f]`` on: the
    cell of (f, g) is ``row[f] + g - out[tgt f]`` and holds the code of f;g.
    ``units``, ``inverse`` and ``gens`` are set by ``_checked``, once the
    cells are filled and checked.
    """

    ids: tuple  # the morphism of each code
    code: dict  # the code of each morphism
    start: dict  # the first code of each hom-set, in sorted (src, tgt) order
    src: np.ndarray  # the object number of each code's source
    tgt: np.ndarray  # and of its target
    out: np.ndarray  # out[x]: the first code out of object x; out[-1] is n
    row: np.ndarray  # row[f]: the first cell of f; row[-1] is the number of cells
    cells: np.ndarray  # the int32 code of each cell's composite
    units: np.ndarray = None  # the code of each object's identity
    inverse: np.ndarray = None  # the code of each code's inverse, or -1
    gens: np.ndarray = None  # the codes of Light's S, in code order

    def cell(self, f, g):
        """The cells of the codes (f, g), which must be composable."""
        return self.row[f] + g - self.out[self.src[g]]

    def pairs(self, lo=0, hi=None):
        """The codes (f, g) of the cells of the codes from ``lo`` to ``hi``,
        by default of every cell, in cell order."""
        hi = len(self.ids) if hi is None else hi
        f = np.repeat(np.arange(lo, hi), np.diff(self.row[lo : hi + 1]))
        return f, np.arange(self.row[lo], self.row[hi]) - self.row[f] + self.out[self.tgt[f]]

    def rounds(self):
        """The codes split, in order, into runs (lo, hi) of at most
        ``_ROUND_CELLS`` cells, or of one code where that alone has more."""
        lo, n = 0, len(self.ids)
        while lo < n:
            end = int(np.searchsorted(self.row, self.row[lo] + _ROUND_CELLS, "right"))
            hi = max(lo + 1, end - 1)
            yield lo, hi
            lo = hi

    def block(self, us, x):
        """The cells (u, g) of the codes ``us`` into object x and every g
        out of x, a row per u."""
        return _rows(self.cells, self.row[us], self.out[x + 1] - self.out[x])

    @functools.cached_property
    def into(self) -> list:
        """``into[x]``: the codes into object x, by source and then id."""
        ends = np.bincount(self.tgt, minlength=len(self.out) - 1)
        return np.split(np.argsort(self.tgt, kind="stable"), np.cumsum(ends))[:-1]

    @functools.cached_property
    def ranks(self) -> np.ndarray:
        """The place of each code among the codes into its target, by
        source and then id."""
        rank = np.empty(len(self.ids), np.int64)
        for us in self.into:
            rank[us] = np.arange(len(us))
        return rank

    def distinct(self, labels=None) -> np.ndarray:
        """The mask of the codes f whose composites u;f, over the codes u
        into src f, are pairwise distinct, each taken with ``labels[u]`` if
        given: one sort per object of the keys label * n + u;f over its
        non-isos, a round of at most ``_SWEEP_CELLS`` cells at a time."""
        n, mask = len(self.ids), np.ones(len(self.ids), bool)
        for x, us in enumerate(self.into):
            if len(us) < 2:
                continue
            fs = self.out[x] + np.flatnonzero(self.inverse[self.out[x] : self.out[x + 1]] < 0)
            step = max(1, _SWEEP_CELLS // len(us))
            for lo in range(0, len(fs), step):
                f = fs[lo : lo + step]
                made = self.cells[self.cell(us[:, None], f)]
                made = np.sort(made if labels is None else made + labels[us][:, None] * n, axis=0)
                mask[f] = (made[1:] != made[:-1]).all(0)
        return mask

    @functools.cached_property
    def monos(self) -> np.ndarray:
        """The mask of the mono codes, ``distinct`` with one label: two u
        into src f with one composite u;f are parallel, as u;f fixes src u."""
        return self.distinct()


def _coding(objects, homs) -> Coding:
    """The coding of the category on the sorted ``objects`` with hom-sets
    ``homs``, each a sorted tuple; every cell holds -1 until it is filled."""
    number = {x: i for i, x in enumerate(objects)}
    keys = sorted(homs)
    ids = tuple(itertools.chain.from_iterable(map(homs.__getitem__, keys)))
    sizes = np.array([len(homs[xy]) for xy in keys], np.int64)
    src = np.repeat(np.array([number[x] for x, _ in keys], np.int32), sizes)
    tgt = np.repeat(np.array([number[y] for _, y in keys], np.int32), sizes)
    width = np.bincount(src, minlength=len(objects))
    out = np.concatenate(([0], np.cumsum(width)))
    row = np.concatenate(([0], np.cumsum(width[tgt])))
    start = dict(zip(keys, (np.cumsum(sizes) - sizes).tolist()))
    code = dict(zip(ids, range(len(ids))))
    try:
        cells = np.full(row[-1], -1, np.int32)
    except MemoryError:
        raise TooManyCells("%d cells (%.1f GiB) could not be allocated" % (row[-1], row[-1] / 2**28)) from None
    return Coding(ids, code, start, src, tgt, out, row, cells)


class _FreshCodes(dict):
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
    """The hom-sets and the identities of the sorted objects of a category
    given by raw ids, each object and morphism id interned once."""
    obs = tuple(sorted(map(sys.intern, objects)))
    if len(set(obs)) != len(obs):
        raise CategoryError("duplicate object identifiers")
    obset = set(obs)

    ends = {}
    for mid, s, t in morphisms:
        mid, s, t = sys.intern(mid), sys.intern(s), sys.intern(t)
        if mid in ends:
            raise CategoryError("duplicate morphism identifier %r" % mid)
        if s not in obset:
            raise UnknownObject("morphism %r has unknown source %r" % (mid, s))
        if t not in obset:
            raise UnknownObject("morphism %r has unknown target %r" % (mid, t))
        ends[mid] = s, t

    ident = {}
    for x in obs:
        if x not in identity:
            raise MissingIdentity("object %r has no identity morphism" % x)
        i = identity[x]
        if i not in ends:
            raise MissingIdentity("identity %r of %r is not a morphism" % (i, x))
        if ends[i] != (x, x):
            raise MissingIdentity("identity %r of %r has endpoints (%r, %r)" % (i, x, *ends[i]))
        ident[x] = i
    for x in identity:
        if x not in obset:
            raise UnknownObject("identity given for unknown object %r" % (x,))
    by_block = sorted(ends, key=lambda m: (ends[m], m))
    return {xy: tuple(ms) for xy, ms in itertools.groupby(by_block, ends.__getitem__)}, ident


def validate_category(objects, morphisms, identity, composition) -> FinCat:
    """Vet a category given by raw ids, then check it like every builder.

    ``morphisms`` is an iterable of ``(id, src, tgt)`` triples, ``identity``
    maps objects to morphism ids, ``composition`` is an iterable of
    ``(first, then, equals)`` triples, read once; composites with an
    identity on either side may be omitted, the unit laws force them.  Ids
    are strings, each object and morphism id interned once.  A pair listed
    twice raises ``ValueError``, before any other error.

    The composition is coded in one C-level pass, checked with array
    operations and written straight into the cells of the coding, which
    ``_checked`` then checks as it checks every builder's; when a check
    fails, a scan names the error that the order in the module docstring
    puts first.  Only the coding is made: ``FinCat.table`` is derived from
    it when first read.
    """
    try:
        homs, ident = _vet_ids(objects, morphisms, identity)
    except CategoryError:
        _no_repeated_pair((f, g) for f, g, _ in composition)
        raise
    return from_cells(ident, homs, lambda coding: _read_composition(coding, ident, composition))


def _read_composition(coding: Coding, ident: dict, composition) -> None:
    """Fill the cells of ``coding`` from the (first, then, equals) triples
    of ``composition`` and the unit laws of the identities ``ident``, or
    raise the first error."""
    n, code = len(coding.ids), _FreshCodes(coding.code)
    flat = np.fromiter(map(code.__getitem__, itertools.chain.from_iterable(composition)), np.int32)
    if len(flat) % 3:
        raise ValueError("composition entries are not (first, then, equals) triples")
    entries = flat.reshape(-1, 3)
    first, then, equals = entries.T
    names = list(code)

    def pairs():
        return zip(map(names.__getitem__, first.tolist()), map(names.__getitem__, then.tolist()))

    # Object numbers of the endpoints of each code; an unknown id gets -1 as
    # source and -2 as target, so it is composable with nothing.
    s_of = np.full(len(names), -1, np.int32)
    t_of = np.full(len(names), -2, np.int32)
    s_of[:n], t_of[:n] = coding.src, coding.tgt

    bad = (t_of[first] != s_of[then]) | (equals >= n)
    if bad.any():
        _no_repeated_pair(pairs())
        f, g, h = (names[c] for c in entries[int(np.argmax(bad))].tolist())
        unknown = [m for m in (f, g, h) if m not in coding.code]
        if unknown:
            raise UnknownMorphism("composition table mentions %r" % unknown[0])
        raise NonComposablePairInTable((f, g))

    at = coding.cell(first, then)
    if len(at) and np.bincount(at).max() > 1:
        _no_repeated_pair(pairs())

    cells, c = coding.cells, np.arange(n)
    cells[at] = equals
    unit = np.array([code[i] for i in ident.values()], np.int64)
    for forced in (coding.cell(unit[coding.src], c), coding.cell(c, unit[coding.tgt])):
        cells[forced] = np.where(cells[forced] < 0, c, cells[forced])
    _check_units(coding, unit)

    missing = np.flatnonzero(cells < 0)
    moved = at[(s_of[equals] != s_of[first]) | (t_of[equals] != t_of[then])]
    if missing.size or moved.size:
        # per pair of blocks in block order, the first cell that misses its
        # composite, else the first whose composite is in the wrong hom-set
        at = np.concatenate((missing, moved))
        f = np.searchsorted(coding.row, at, "right") - 1
        g = at - coding.row[f] + coding.out[coding.tgt[f]]
        block = np.searchsorted(list(coding.start.values()), np.arange(n), "right")
        k = np.lexsort((at, np.arange(len(at)) >= len(missing), block[g], block[f]))[0]
        pair = (coding.ids[f[k]], coding.ids[g[k]])
        if k < len(missing):
            raise MissingComposite(pair)
        raise CompositeEndpointViolation((*pair, coding.ids[cells[at[k]]]))


def from_parts(identities: dict, blocks: dict, factors) -> FinCat:
    """Lay out and check the category whose morphisms are listed by their
    parts in the categories ``factors``.

    ``blocks`` maps (x, y) to ``{parts: morphism id}``, where ``parts`` holds
    one code of the coding of each factor, and ``identities`` maps each
    object to the parts of its identity.  The parts of f;g are, factor by
    factor, the composites of the parts of f and of g, so each part of a
    morphism x→y must run between the factor's objects of x and y, those of
    their identities' parts.  Then the places of f;g's parts in the hom-sets
    of block (src f, tgt g), in mixed radix, index a dense table of that
    block's codes.  Each cell is written, a round of ``Coding.rounds`` at a
    time, by one gather per factor and one lookup in that table, whose start
    is read off the pair of blocks of f and g.  After an unknown endpoint or
    a repeated id, a part between other objects raises ``CategoryError``,
    and the first cell in cell order whose composite is not listed raises
    ``CompositeEndpointViolation((f, g))``; then ``MissingIdentity``,
    ``UnitViolation`` and ``AssociativityViolation``.
    """
    blocks = {xy: block for xy, block in blocks.items() if block}
    seen = set()
    for (x, y), block in blocks.items():
        if x not in identities or y not in identities:
            raise UnknownObject("hom-set block %r has an unknown endpoint" % ((x, y),))
        again = next((m for m in block.values() if m in seen or seen.add(m)), None)
        if again is not None:
            raise CategoryError("duplicate morphism identifier %r" % again)
    homs = {xy: tuple(sorted(block.values())) for xy, block in blocks.items()}
    identity = {x: blocks.get((x, x), {}).get(identities[x]) for x in sorted(identities)}
    codings = [C.coding for C in factors]
    units = np.array([identities[x] for x in identity], np.int64).reshape(len(identity), len(codings)).T

    def fill(coding):
        n, ids, row, m = len(coding.ids), coding.ids, coding.row, len(identity)
        parts = np.empty((len(codings), n), np.int64)
        for block in blocks.values():
            codes = [coding.code[mid] for mid in block.values()]
            parts[:, codes] = np.array(list(block), np.int64).reshape(len(block), -1).T
        # per factor: the cells, each code's part's row start and column, and
        # each factor code's place in its hom-set and that hom-set's size
        per_factor, key, span = [], np.zeros(n, np.int64), np.ones(n, np.int64)
        for K, p, e in zip(codings, parts, units):
            bad = (K.src[p] != K.src[e][coding.src]) | (K.tgt[p] != K.tgt[e][coding.tgt])
            if bad.any():
                raise CategoryError("a part of %r runs between other objects" % ids[int(np.argmax(bad))])
            first = np.fromiter(K.start.values(), np.int64, len(K.start))
            count = np.diff(first, append=len(K.ids))
            place, size = np.arange(len(K.ids)) - np.repeat(first, count), np.repeat(count, count)
            per_factor.append((K.cells, K.row[p], p - K.out[K.src[p]], place, size))
            key, span = key * size[p] + place[p], span * size[p]
        # per block: its ends, the start of its table and, per pair of blocks
        # (x, y), (y, z), that of block (x, z), or the end of the tables
        first = np.fromiter(coding.start.values(), np.int64, len(coding.start))
        block = np.repeat(np.arange(len(first)), np.diff(first, append=n))
        x, z, span = coding.src[first], coding.tgt[first], span[first]
        start, end, out = np.cumsum(span) - span, int(span.sum()), np.searchsorted(x, np.arange(m + 1))
        later = out[z + 1] - out[z]
        pair = np.cumsum(later) - later
        b1 = np.repeat(np.arange(len(first)), later)
        made = x[b1] * m + z[out[z[b1]] + np.arange(len(b1)) - pair[b1]]
        at = np.minimum(np.searchsorted(x * m + z, made), len(first) - 1)
        pair_start = np.where(x[at] * m + z[at] == made, start[at], end)
        table = np.full(end + 1, -1, np.int32)
        table[start[block] + key] = np.arange(n)
        in_pair, out_rank = pair[block], block - out[coding.src]
        for lo, hi in coding.rounds():
            f, g = coding.pairs(lo, hi)
            key = np.zeros(len(f), np.int64)
            for cells, r, c, place, size in per_factor:
                made = cells[r[f] + c[g]]
                key = key * size[made] + place[made]
            made = table[np.minimum(pair_start[in_pair[f] + out_rank[g]] + key, end)]
            if (made < 0).any():
                k = int(np.argmax(made < 0))
                raise CompositeEndpointViolation((ids[f[k]], ids[g[k]]))
            coding.cells[row[lo] : row[hi]] = made

    return from_cells(identity, homs, fill)


def from_cells(identity: dict, homs: dict, fill) -> FinCat:
    """The category on the objects of ``identity``, which are sorted, with
    the hom-sets ``homs``, each a sorted tuple; the coding implies every
    endpoint.  ``fill(coding)`` writes every cell of a fresh coding, in
    which each cell holds -1 until written, or raises the first error among
    the composites.  Then the first object whose identity is None raises
    ``MissingIdentity``, and ``_checked`` runs."""
    coding = _coding(tuple(identity), homs)
    fill(coding)
    missing = next((x for x, i in identity.items() if i is None), None)
    if missing is not None:
        raise MissingIdentity("object %r has no identity morphism" % missing)
    return _checked(identity, homs, coding)


def _checked(identity: dict, homs: dict, coding: Coding) -> FinCat:
    """The category whose coding has every cell filled, once the unit laws
    and associativity hold, checked in that order.  ``identity`` maps the
    sorted objects to their identities and ``homs`` maps each hom-set to its
    sorted morphisms.  The codes of the identities, of each inverse and of
    S are set on ``coding``, and every other field is read off it."""
    ids, units = coding.ids, np.array([coding.code[i] for i in identity.values()], np.int64)
    is_unit = _check_units(coding, units)
    gens = np.flatnonzero(_generators(homs, coding, is_unit))
    _check_associativity(homs, coding, gens)

    # g is the inverse of f when both composites are identities; it is
    # unique, as the category is associative.
    at = np.flatnonzero(is_unit[coding.cells])
    f = np.searchsorted(coding.row, at, "right") - 1
    g = at - coding.row[f] + coding.out[coding.tgt[f]]
    back = is_unit[coding.cells[coding.cell(g, f)]]
    inverse = np.full(len(ids), -1, np.int64)
    inverse[f[back]] = g[back]
    vars(coding).update(units=units, inverse=inverse, gens=gens)

    objects, name = tuple(identity), ids.__getitem__
    src, tgt = (dict(zip(ids, map(objects.__getitem__, ends.tolist()))) for ends in (coding.src, coding.tgt))
    inverses = dict(sorted(zip(map(name, f[back].tolist()), map(name, g[back].tolist()))))
    S, id_mors = tuple(sorted(map(name, gens.tolist()))), frozenset(identity.values())
    return FinCat(objects, tuple(sorted(ids)), src, tgt, identity, homs, inverses, id_mors, S, coding)


def _check_units(coding: Coding, units):
    """Raise ``UnitViolation`` for the first morphism by id whose composite
    with an identity is not itself, else return the mask of the identities,
    ``units`` holding the code of each object's."""
    cells, c = coding.cells, np.arange(len(coding.ids))
    left = cells[coding.cell(units[coding.src], c)]
    right = cells[coding.cell(c, units[coding.tgt])]
    bad = np.flatnonzero((left != c) | (right != c))
    if bad.size:
        f = min(coding.ids[k] for k in bad.tolist())
        k = coding.code[f]
        if left[k] != k:
            raise UnitViolation((coding.ids[units[coding.src[k]]], f, coding.ids[left[k]]))
        raise UnitViolation((f, coding.ids[units[coding.tgt[k]]], coding.ids[right[k]]))
    return np.isin(c, units)


def _table(coding: Coding) -> dict:
    """The composition table in cell order, its names gathered one round of
    ``Coding.rounds`` at a time."""
    row, names, table = coding.row, np.array(coding.ids, object), {}
    for lo, hi in coding.rounds():
        f, g = coding.pairs(lo, hi)
        h = coding.cells[row[lo] : row[hi]]
        table.update(zip(zip(names[f].tolist(), names[g].tolist()), names[h].tolist()))
    return table


def subcategory(C: FinCat, objects, morphisms) -> FinCat:
    """The subcategory of ``C`` on ``objects`` and ``morphisms``, which must
    hold the identities of ``objects`` and be closed under composition.

    Its codes are those of ``morphisms`` in the order of ``C``'s, so its
    cells are one gather of ``C``'s cells, mapped back by ``position``, the
    code of each code of ``C`` in the subcategory or -1 outside it.  A
    morphism with an endpoint outside ``objects`` raises ``UnknownObject``,
    and the first cell in cell order whose composite h = f;g leaves the
    subcategory ``CompositeEndpointViolation((f, g, h))``."""
    K, inside = C.coding, set(objects)
    # Asked for counts, np.unique sorts; its hash path would import numpy.ma.
    keep = np.unique(np.array([K.code[m] for m in morphisms], np.int64), return_counts=True)[0]
    ids = [K.ids[k] for k in keep.tolist()]
    outside = next((m for m in ids if not {C.src[m], C.tgt[m]} <= inside), None)
    if outside is not None:
        raise UnknownObject("morphism %r has an endpoint outside the subcategory" % outside)
    homs = {xy: tuple(ms) for xy, ms in itertools.groupby(ids, lambda m: (C.src[m], C.tgt[m]))}
    position = np.full(len(K.ids), -1, np.int64)
    position[keep] = np.arange(len(keep))

    def fill(coding):
        f, g = coding.pairs()
        made = K.cells[K.cell(keep[f], keep[g])]
        coding.cells[:] = at = position[made]
        if (at < 0).any():
            k = int(np.argmax(at < 0))
            raise CompositeEndpointViolation((ids[f[k]], ids[g[k]], K.ids[made[k]]))

    kept = dict(zip(C.objects, (position[K.units] >= 0).tolist()))
    identity = {x: C.id_of(x) if kept[x] else None for x in sorted(inside)}
    return from_cells(identity, homs, fill)


# cells held by the arrays of one numpy round of a sweep: few enough to stay in
# a core's L2 cache (2 MB a core on the 2-vCPU Xeon measured)
_SWEEP_CELLS = 1 << 18


def _generators(homs: dict, coding: Coding, is_unit):
    """The generating set S of Light's test, as a mask over the codes: with
    the identities (``is_unit``), S generates every morphism under
    composition.

    S starts as every non-identity that is not a composite of two
    non-identities, which any generating set holds.  Then the hom-sets are
    visited in the order (rise, size, block), and while some morphism of
    the one visited is not made, the least one by code joins S, and what is
    made is closed under composition again.  A pick p: x→y in a block that
    rises by 0 is closed in rounds: the newly made morphisms are composed
    with what is made, on either side, until nothing new appears.  A block
    that rises joins two classes, so hom(y, x) is empty and p occurs at most
    once in any composite; as what is made was closed before the pick, the
    closure adds exactly the a;p;b over the made a into x and b out of y,
    identities included: one gather of the cells (a, p), then one of their
    rows at the made columns out of y.  Any order of visits yields a
    generating set, since each block is wholly made when its visit ends;
    the order decides only how large S is.

    The rise of a block (x, y) is h(y) - h(x), where the height h of an
    object is the length of the longest chain of classes strictly below its
    class in the preorder "hom(x, y) is nonempty", which is transitive in
    any category and so needs no closure.  A block inside one class rises
    by 0 and one between classes by at least 1, and when z lies strictly
    between x and y, the blocks (x, z) and (z, y) each rise by less than (x,
    y).  So the blocks inside the classes come first, and every composite
    through an object strictly between x and y is made before (x, y) is
    visited: a morphism there joins S only when no such composite makes it.
    Visiting by size alone would pick from small blocks such as hom(0, n)
    first, whose morphisms later picks compose to anyway: on FI_5 that
    gives 66 generators, this order 15 (the adjacent transpositions of each
    Aut(k) and one injection k→k+1 for each k).
    """
    n, src, tgt, out, row, cells = len(coding.ids), coding.src, coding.tgt, coding.out, coding.row, coding.cells
    into = coding.into

    def composites(fs, cols):
        """The composites of the codes ``fs``, which share a target, with
        the morphisms in the columns ``cols`` of their cells."""
        return cells[row[fs][:, None] + cols]

    split = np.zeros(n, bool)  # the composites of two non-identities, a round of rows at a time
    for y, fs in zip(range(len(out) - 1), into):
        fs, cols = fs[~is_unit[fs]], np.flatnonzero(~is_unit[out[y] : out[y + 1]])
        step = max(1, _SWEEP_CELLS // max(1, len(cols)))
        for lo in range(0, len(fs), step):
            split[composites(fs[lo : lo + step], cols)] = True
    gens = ~split & ~is_unit
    made = gens | is_unit

    def close(fresh):
        while True:
            got = np.zeros(n, bool)
            new = np.flatnonzero(fresh)
            ends = tgt[new]
            for y in set(ends.tolist()):
                got[composites(new[ends == y], np.flatnonzero(made[out[y] : out[y + 1]]))] = True
            for x in set(src[new].tolist()):
                fs = into[x][made[into[x]]]
                got[composites(fs, np.flatnonzero(fresh[out[x] : out[x + 1]]))] = True
            fresh = got & ~made
            if not fresh.any():
                return
            made[fresh] = True

    # below[x, y]: hom(x, y) is nonempty and hom(y, x) is empty
    first = np.fromiter(coding.start.values(), np.int64, len(coding.start))
    below = np.zeros((len(out) - 1,) * 2, bool)
    below[src[first], tgt[first]] = True
    below &= ~below.T
    height = np.zeros(len(out) - 1, np.int64)
    while True:
        up = np.where(below, height[:, None] + 1, 0).max(0, initial=0)
        if np.array_equal(up, height):
            break
        height = up
    rise = dict(zip(coding.start, (height[tgt[first]] - height[src[first]]).tolist()))

    close(gens)
    for xy in sorted(homs, key=lambda xy: (rise[xy], len(homs[xy]), xy)):
        o, m = coding.start[xy], len(homs[xy])
        x, y = src[o], tgt[o]
        while True:
            free = np.flatnonzero(~made[o : o + m])
            if not free.size:
                break
            p = o + free[0]
            made[p] = gens[p] = True
            if rise[xy]:
                a = into[x][made[into[x]]]
                made[composites(cells[row[a] + p - out[x]], np.flatnonzero(made[out[y] : out[y + 1]]))] = True
            else:
                close(np.arange(n) == p)
    return gens


def _check_associativity(homs: dict, coding: Coding, gens=None):
    """Associativity check on the cells of ``coding``.

    One sweep per hom-set (b, c) covers every f into b and every h out of c
    at once: (f;g);h, the row of the code f;g, must equal f;(g;h), the row
    of f at the columns of g;h.  Every morphism into one object has a row of
    one width, so the rows of the f are read at their starts in ``cells``,
    and so are those of the f;g.  With the codes ``gens``, only those g
    are swept and a hom-set without one is skipped (Light's test, see the
    module docstring); a failure there reruns the full sweep, in which
    every g is swept.  The full sweep keeps the first failing (a, b, c) in
    the order (a, b), c: the f into b come by source, so within a hom-set
    the first failing f has the least a, and a later hom-set can only come
    first with an earlier a, so there only the f from an earlier a are
    swept.  That (a, b, c) is rescanned d by d, so the ``AssociativityViolation`` names
    the first triple in the order (a, b), c, d, (f, g, h).  A round holds
    at most ``_SWEEP_CELLS`` cells across its arrays, or one (f, g) where
    that alone has more.
    """
    cells, row, out, src, tgt = coding.cells, coding.row, coding.out, coding.src, coding.tgt
    g = np.arange(len(coding.ids)) if gens is None else gens
    cut = np.flatnonzero((src[g[1:]] != src[g[:-1]]) | (tgt[g[1:]] != tgt[g[:-1]])) + 1
    first = None  # the first failing (a, b, c) of the full sweep, as object numbers
    for g in np.split(g, cut) if g.size else ():
        x, y = src[g[0]], tgt[g[0]]
        fs = coding.into[x]
        if first is not None:
            fs = fs[: np.searchsorted(src[fs], first[0])]
        lo, w_b, w_c = out[x], out[x + 1] - out[x], out[y + 1] - out[y]
        # A round holds the columns, in a row of f, of its g and of their
        # composites g;h, the rows of its f, and per (f, g) the code f;g,
        # its row start, its row, the row of f at the columns of g;h and
        # their comparison.
        gstep = min(len(g), max(1, (_SWEEP_CELLS - w_b) // (4 * w_c + 3)))
        fstep = max(1, (_SWEEP_CELLS - gstep * (w_c + 1)) // (w_b + gstep * (3 * w_c + 2)))
        bad = np.zeros(len(fs), bool)
        for j0 in range(0, len(g), gstep):
            gs = g[j0 : j0 + gstep]
            cols, gh = gs - lo, (_rows(cells, row[gs], w_c) - lo).ravel()
            for i0 in range(0, len(fs), fstep):
                rf = _rows(cells, row[fs[i0 : i0 + fstep]], w_b)
                left = _rows(cells, row[rf[:, cols]], w_c).reshape(len(rf), -1)
                miss = left != np.take(rf, gh, axis=1)
                if miss.any():
                    if gens is not None:
                        _check_associativity(homs, coding)
                        raise CategoryError("internal error: Light's test failed, the full sweep held")
                    bad[i0 : i0 + fstep] |= miss.any(1)
        if bad.any():
            first = src[fs[int(np.argmax(bad))]], x, y
    if first is not None:
        objects = list(dict.fromkeys(x for x, _ in coding.start))
        _raise_first_violation(homs, coding, *(objects[k] for k in first))


def runs(starts, sizes):
    """For runs of ``sizes`` consecutive numbers from ``starts``: the run of
    each number, and the number."""
    run = np.repeat(np.arange(len(sizes)), sizes)
    return run, np.arange(len(run)) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)


def _rows(cells, starts, width):
    """The rows of ``width`` cells from each of ``starts`` on."""
    # Row i of this view is the window of ``width`` cells from cell i, so
    # indexing it copies only the rows asked for (``np.take`` would copy the
    # whole view first).
    windows = np.ndarray((len(cells) - width + 1, width), cells.dtype, cells, 0, (cells.itemsize,) * 2)
    return windows[starts]


def _raise_first_violation(homs, coding, a, b, c):
    """Rescan a failing (a, b, c) one d at a time and raise the first
    ``AssociativityViolation`` in (d, f, g, h) order."""
    start, h1, h2 = coding.start, homs[(a, b)], homs[(b, c)]
    rows = {}
    for xy in ((a, b), (b, c), (a, c)):
        q = start[xy]
        rows[xy] = coding.cells[coding.row[q] : coding.row[q + len(homs[xy])]].reshape(len(homs[xy]), -1)
    r_ab, r_bc = rows[(a, b)], rows[(b, c)]
    out_b, out_c = coding.out[coding.tgt[start[(a, b)]]], coding.out[coding.tgt[start[(b, c)]]]
    fg = r_ab[:, start[(b, c)] - out_b : start[(b, c)] - out_b + len(h2)] - start[(a, c)]
    for (x, d), o in start.items():
        if x != c:
            continue
        o, h3 = o - out_c, homs[(c, d)]
        l_acd, l_bcd = rows[(a, c)][:, o : o + len(h3)], r_bc[:, o : o + len(h3)] - out_b
        step = max(1, _SWEEP_CELLS // l_bcd.size)
        for i0 in range(0, len(h1), step):
            bad = l_acd[fg[i0 : i0 + step]] != np.take(r_ab[i0 : i0 + step], l_bcd, axis=1)
            if bad.any():
                i, j, k = map(int, np.argwhere(bad)[0])
                raise AssociativityViolation((h1[i0 + i], h2[j], h3[k]))


# ---------------------------------------------------------------------------
# Elementary predicates.  All are exhaustive; none mutate the category.
# ---------------------------------------------------------------------------


def mono_witness(C: FinCat, f: str):
    """A parallel pair (g1, g2) with f∘g1 = f∘g2 and g1 ≠ g2, if one exists:
    g2 is the first morphism into src f, by source and then id, whose
    composite with f an earlier g1 has, read from the cells."""
    C.require_morphism(f)
    coding = C.coding
    k = coding.code[f]
    us = coding.into[coding.src[k]]
    made = coding.cells[coding.cell(us, k)]
    _, first, at = np.unique(made, return_index=True, return_inverse=True)
    earlier = first[at]
    later = np.flatnonzero(earlier != np.arange(len(us)))
    if not later.size:
        return None
    g2 = int(later[0])
    return coding.ids[us[earlier[g2]]], coding.ids[us[g2]]


def is_mono(C: FinCat, f: str) -> bool:
    return mono_witness(C, f) is None


def is_iso(C: FinCat, f: str):
    """The two-sided inverse of ``f`` if it exists, else None."""
    C.require_morphism(f)
    return C.inverses.get(f)


def is_ei(C: FinCat) -> Check:
    """Every endomorphism is an isomorphism; else the first that is not,
    by object and then id, which is code order."""
    K = C.coding
    bad = np.flatnonzero((K.src == K.tgt) & (K.inverse < 0))
    return Check(False, K.ids[bad[0]]) if bad.size else Check(True)


def automorphisms(C: FinCat, x: str) -> tuple:
    C.require_object(x)
    return tuple(f for f in C.endos(x) if f in C.inverses)


def is_transitive(C: FinCat) -> Check:
    """Aut(y) acts transitively on hom(x, y) for every pair of objects.

    The action is a group action, so it suffices to check that the orbit of
    the first morphism in each hom-set is the whole hom-set: the cells of
    that morphism at the codes of Aut(y).  The codes of every Aut(y) are
    found once, and every orbit is marked in one pass over the cells.
    """
    coding, n = C.coding, len(C.coding.ids)
    auts = np.flatnonzero((coding.inverse >= 0) & (coding.src == coding.tgt))  # by object
    count = np.bincount(coding.src[auts], minlength=len(C.objects))
    first = np.fromiter(coding.start.values(), np.int64, len(coding.start))
    k = count[coding.tgt[first]]  # |Aut(y)| for each hom-set (x, y)
    # the place in ``auts`` of each Aut(y) of each hom-set, one after another
    at = np.repeat(np.cumsum(count)[coding.tgt[first]] - np.cumsum(k), k) + np.arange(k.sum())
    orbit = np.zeros(n, bool)
    orbit[coding.cells[coding.cell(np.repeat(first, k), auts[at])]] = True
    whole = np.add.reduceat(orbit, first, dtype=np.int64) == np.diff(first, append=n)
    if whole.all():
        return Check(True)
    (x, y), f1 = list(coding.start.items())[int(np.argmin(whole))]
    return Check(False, (x, y, coding.ids[f1], coding.ids[f1 + int(np.argmin(orbit[f1:]))]))


def iso_classes(C: FinCat) -> tuple:
    """Partition of the objects by mutual isomorphism, sorted canonically;
    made once per category and kept in its cache."""
    memo = C.cache("iso_classes")
    if "classes" not in memo:
        memo["classes"] = _iso_classes(C)
    return memo["classes"]


def _iso_classes(C: FinCat) -> tuple:
    """The class of x is the targets of the isos out of x: isos compose and
    invert, and the identity of x is one."""
    K, classes = C.coding, {}
    isos = K.inverse >= 0
    for x, y in zip(K.src[isos].tolist(), K.tgt[isos].tolist()):
        classes.setdefault(x, set()).add(C.objects[y])
    return tuple(sorted({tuple(sorted(ys)) for ys in classes.values()}))


def below_set(C: FinCat, y: str) -> tuple:
    """Isomorphism classes [x] with hom(x, y) nonempty."""
    C.require_object(y)
    return tuple(
        cls for cls in iso_classes(C) if C.hom(cls[0], y)
    )


def is_groupoid(C: FinCat) -> bool:
    return len(C.inverses) == len(C.morphisms)
