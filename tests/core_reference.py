"""Reference construction: ``validate_category`` and ``assemble`` as they
were before ``assemble`` became the one constructor, over the
per-(a, b, c, d) associativity sweep.

``assemble`` composed every pair of blocks into a string table and handed it
to ``validate_category``, which interned the three ids of each entry, rebuilt
the table and checked it with ``check_completeness_and_associativity``: the
sweep ``fibcat.core`` ran before it moved to ``int32`` local codes and one
sweep per (a, b, c), with global-code composition blocks ``P`` beside
local-code blocks ``L``, an ``nmor``-long global-to-local array per hom-set,
and a broadcast comparison for every composable (a, b, c, d).  It is kept
only as the oracle for ``test_core_reference.py``; the module imports
nothing private from ``fibcat``, and no reference here shares code with the
construction it tests.

``assemble`` here keeps that per-composite contract, ``compose(x, p, q)``
returning a payload; ``test_core_reference.py`` decodes the library's block
composers into it.  The composition formulas of FI, FI_G and coloured FI,
one composite at a time, are kept as ``injection_composite``,
``decorated_composite`` and ``colored_composite``: the oracle for the numpy
composer of ``fibcat.generators``.  ``grothendieck_composite`` is the
composition of the Grothendieck construction, one composite at a time: the
oracle for the block composer of ``fibcat.groth``.

The builders that ``fibcat`` now fills from the parts of each morphism,
``core.from_parts``, are kept here as they were, one composite at a time
through ``assemble`` and each factor's string table: ``relation_category``,
``product``, ``slice_category``, ``arrow_category``, ``gpow_fiber`` and
``group_as_category``.  ``injection_category`` builds FI, FI_G and
coloured FI the same way, from the images and decorations of each
morphism.  ``light_generators`` is Light's generating set as ``fibcat.core``
chose it before a pick between two classes was closed in one step: every
pick closed round by round, the oracle for ``FinCat.generators``.

``assemble_blocks`` is not a reference.  It is the block builder the
library had before its builders wrote their cells through
``core.from_cells``, kept over ``from_cells`` with its error contract
because the seeded corpus (``random_categories``) and the tests that build
small categories from a composer use it; ``per_composite`` drives it with a
per-composite formula.
"""

from __future__ import annotations

import itertools
import sys
from types import SimpleNamespace

import numpy as np

from fibcat.core import (
    AssociativityViolation,
    CategoryError,
    CompositeEndpointViolation,
    MissingComposite,
    MissingIdentity,
    NonComposablePairInTable,
    UnitViolation,
    UnknownMorphism,
    UnknownObject,
    from_cells,
)


def intern_id(s: str) -> str:
    return sys.intern(str(s))


def validate_category(objects, morphisms, identity, composition) -> SimpleNamespace:
    """Check the category axioms exhaustively and return the fields of the
    ``FinCat``, without its integer coding.

    ``morphisms`` is an iterable of ``(id, src, tgt)`` triples, ``identity``
    maps objects to morphism ids, ``composition`` maps composable pairs
    ``(first, then)`` to composite ids.  Composites with an identity on
    either side may be omitted; they are forced by the unit laws and are
    filled in here.
    """
    obs = tuple(sorted(intern_id(x) for x in objects))
    if len(set(obs)) != len(obs):
        raise CategoryError("duplicate object identifiers")
    obset = set(obs)

    src, tgt = {}, {}
    for mid, s, t in morphisms:
        mid, s, t = intern_id(mid), intern_id(s), intern_id(t)
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
        i = intern_id(identity[x])
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
        f, g, h = intern_id(f), intern_id(g), intern_id(h)
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

    check_completeness_and_associativity(obs, mors, src, tgt, table, homs)

    inverses = {}
    for f in mors:
        x, y = src[f], tgt[f]
        for g in homs.get((y, x), ()):
            if table[(f, g)] == ident[x] and table[(g, f)] == ident[y]:
                inverses[f] = g
                break

    return SimpleNamespace(
        objects=obs,
        morphisms=mors,
        src=src,
        tgt=tgt,
        identity=ident,
        table=table,
        homs=homs,
        inverses=inverses,
        identity_morphisms=id_mors,
        # Every non-identity: a generating set that needs no search.
        generators=tuple(m for m in mors if m not in id_mors),
    )


def assemble(identities: dict, blocks: dict, compose) -> SimpleNamespace:
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


def check_completeness_and_associativity(obs, mors, src, tgt, table, homs):
    """Exhaustive totality, endpoint and associativity checks.

    Vectorised with small integer tables: the largest generated categories
    have ~10^8 composable triples, far beyond what pure-Python loops handle.
    """
    code = {m: i for i, m in enumerate(mors)}
    nmor = len(mors)
    loc = {}  # (x, y) -> int64 array mapping global code -> local hom index

    def glob2loc(x, y):
        a = loc.get((x, y))
        if a is None:
            a = np.full(nmor, -1, dtype=np.int64)
            for i, m in enumerate(homs.get((x, y), ())):
                a[code[m]] = i
            loc[(x, y)] = a
        return a

    outs = {}
    for (x, y) in homs:
        outs.setdefault(x, []).append(y)
    for x in outs:
        outs[x].sort()

    pair_tabs = {}  # (a, b, c) -> (P global codes, L local codes)

    def pair_tab(a, b, c):
        got = pair_tabs.get((a, b, c))
        if got is not None:
            return got
        h1 = homs[(a, b)]
        h2 = homs[(b, c)]
        g2l = glob2loc(a, c)
        p = np.empty((len(h1), len(h2)), dtype=np.int64)
        for i, f in enumerate(h1):
            row = p[i]
            for j, g in enumerate(h2):
                h = table.get((f, g))
                if h is None:
                    raise MissingComposite((f, g))
                row[j] = code[h]
        l = g2l[p]
        if (l < 0).any():
            i, j = map(int, np.argwhere(l < 0)[0])
            raise CompositeEndpointViolation((h1[i], h2[j], mors[p[i, j]]))
        pair_tabs[(a, b, c)] = (p, l)
        return p, l

    # Totality and endpoints over every composable pair.
    for (a, b) in sorted(homs):
        for c in outs.get(b, ()):
            pair_tab(a, b, c)

    # Associativity over every composable triple.
    for (a, b) in sorted(homs):
        for c in outs.get(b, ()):
            _, l_abc = pair_tab(a, b, c)
            for d in outs.get(c, ()):
                p_acd, _ = pair_tab(a, c, d)
                p_abd, _ = pair_tab(a, b, d)
                _, l_bcd = pair_tab(b, c, d)
                n1, n2 = l_abc.shape
                n3 = l_bcd.shape[1]
                chunk = max(1, 2_000_000 // max(1, n2 * n3))
                for i0 in range(0, n1, chunk):
                    i1 = min(n1, i0 + chunk)
                    left = p_acd[l_abc[i0:i1]]  # (i, n2, n3)
                    right = p_abd[
                        np.arange(i0, i1)[:, None, None], l_bcd[None, :, :]
                    ]
                    if not np.array_equal(left, right):
                        i, j, k = map(int, np.argwhere(left != right)[0])
                        raise AssociativityViolation(
                            (
                                homs[(a, b)][i0 + i],
                                homs[(b, c)][j],
                                homs[(c, d)][k],
                            )
                        )


def injection_composite(f_imgs, g_imgs):
    """Image tuple of the injection f then g."""
    return tuple(g_imgs[i] for i in f_imgs)


def decorated_composite(G, f_imgs, f_decs, g_imgs, g_decs):
    """Compose decorated injections: pull the second decoration back along
    the first injection and multiply on the right."""
    imgs = tuple(g_imgs[i] for i in f_imgs)
    decs = tuple(G.mul(d, g_decs[i]) for d, i in zip(f_decs, f_imgs))
    return imgs, decs


def colored_composite(color_groups, s, f_imgs, f_decs, g_imgs, g_decs):
    """``decorated_composite`` out of the coloured set ``s``: the decoration
    at point k multiplies in the group of its colour ``s[k]``."""
    imgs = tuple(g_imgs[i] for i in f_imgs)
    decs = tuple(
        color_groups[s[k]].mul(d, g_decs[f_imgs[k]]) for k, d in enumerate(f_decs)
    )
    return imgs, decs


def grothendieck_composite(M, p, q):
    """The payload of p then q in the total category of the indexed category
    ``M``: p = (f, k, b) and q = (g, l, c) compose to (f;g, k;M(f)(l);mu[f,
    g](c), c).  A missing entry or a fiber pair that is not composable
    raises ``KeyError``."""
    (f, k, _), (g, l, c) = p, q
    fib = M.fibers[M.base.src[f]].table
    return (
        M.base.table[(f, g)],
        fib[(fib[(k, M.arrows[f].on_morphisms[l])], M.compositors[(f, g)].components[c])],
        c,
    )


def injection_category(points: dict, images, mid):
    """The category of decorated injections that
    ``fibcat.generators._injection_category`` builds from the same
    arguments, composed one composite at a time: f then g has image
    g_img[f_img] and, at each point k of its source, decoration
    ``mul(f_dec[k], g_dec[f_img[k]])`` in the group of that point."""
    blocks = {}
    for s in points:
        for t in points:
            decs = list(itertools.product(*(G.elements for G in points[s])))
            block = {(i, d): mid(s, t, i, d) for i in images(s, t) for d in decs}
            if block:
                blocks[(s, t)] = block

    def compose(x, p, q):
        (f_imgs, f_decs), (g_imgs, g_decs) = p, q
        decs = tuple(G.mul(d, g_decs[i]) for G, d, i in zip(points[x], f_decs, f_imgs))
        return tuple(g_imgs[i] for i in f_imgs), decs

    units = {s: (tuple(range(len(gs))), tuple(G.unit for G in gs)) for s, gs in points.items()}
    return assemble(units, blocks, compose)


def light_generators(C) -> tuple:
    """Light's generating set S of ``C``, chosen as ``fibcat.core`` chooses
    it, with every pick closed round by round: each round composes the
    newly made morphisms with what is made, on either side, until nothing
    new appears.  Read from ``C.coding``."""
    coding, homs = C.coding, C.homs
    n, src, tgt, out, row, cells = (
        len(coding.ids), coding.src, coding.tgt, coding.out, coding.row, coding.cells,
    )
    into = coding.into
    is_unit = np.isin(np.arange(n), [coding.code[i] for i in C.identity.values()])

    def composites(fs, cols):
        return cells[row[fs][:, None] + cols]

    split = np.zeros(n, bool)
    for y, fs in zip(range(len(out) - 1), into):
        split[composites(fs[~is_unit[fs]], np.flatnonzero(~is_unit[out[y] : out[y + 1]]))] = True
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
        while True:
            free = np.flatnonzero(~made[o : o + m])
            if not free.size:
                break
            fresh = np.zeros(n, bool)
            fresh[o + free[0]] = made[o + free[0]] = gens[o + free[0]] = True
            close(fresh)
    return tuple(sorted(coding.ids[k] for k in np.flatnonzero(gens).tolist()))


def assemble_blocks(identities: dict, blocks: dict, compose):
    """Lay out and check the category whose hom-sets are ``blocks``, through
    ``fibcat.core.from_cells``.

    ``blocks`` maps (x, y) to ``{payload: morphism id}`` and ``identities``
    maps each object to the payload of its identity.  ``compose(x, y, z)``
    composes the blocks (x, y) and (y, z): an integer array of shape
    (|blocks[(x, y)]|, |blocks[(y, z)]|) whose entry (i, j) is the position,
    in the insertion order of ``blocks[(x, z)]``, of the i-th payload of
    (x, y) followed by the j-th of (y, z).  After an unknown endpoint or a
    repeated id, errors are the composer's own, then per pair of blocks in
    block order ``CompositeEndpointViolation((f, g, position))`` for the
    first position outside block (x, z); then ``MissingIdentity``,
    ``UnitViolation`` and ``AssociativityViolation``.
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
    identity = {x: blocks.get((x, x), {}).get(identities[x]) for x in sorted(identities)}

    def fill(coding):
        # codes[(y, z)]: the codes of the block in insertion order; columns[(y,
        # z)]: their columns in the cells of a code into y.
        ids, codes, columns, later = {}, {}, {}, {}
        for (y, z), qs in blocks.items():
            ids[(y, z)] = list(qs.values())
            c = codes[(y, z)] = np.array([coding.code[m] for m in qs.values()], np.int64)
            columns[(y, z)] = c - coding.out[coding.src[c[0]]]
            later.setdefault(y, []).append(z)
        for (x, y), pids in ids.items():
            at_rows = coding.row[codes[(x, y)]][:, None]
            for z in later.get(y, ()):
                at, qids, n = np.asarray(compose(x, y, z)), ids[(y, z)], len(ids.get((x, z), ()))
                if at.min() < 0 or at.max() >= n:
                    i, j = map(int, np.argwhere((at < 0) | (at >= n))[0])
                    raise CompositeEndpointViolation((pids[i], qids[j], int(at[i, j])))
                coding.cells[at_rows + columns[(y, z)]] = codes[(x, z)][at]

    return from_cells(identity, homs, src, tgt, fill)


def per_composite(blocks: dict, compose):
    """The block composer, for ``assemble_blocks`` over
    ``blocks``, of a per-composite ``compose(p, q)``: the payload of p: x→y
    then q: y→z, or None if missing (None is never a payload).  A pair of
    blocks raises ``MissingComposite((f, g))`` for its first missing
    composite, else ``CompositeEndpointViolation((f, g, payload))`` for the
    first payload outside ``blocks[(x, z)]``."""
    positions = {}

    def composer(x, y, z):
        pos = positions.get((x, z))
        if pos is None:
            pos = positions[(x, z)] = {p: i for i, p in enumerate(blocks.get((x, z), ()))}
        ps, qs = blocks[(x, y)], blocks[(y, z)]
        made = [compose(p, q) for p in ps for q in qs]
        pairs = list(itertools.product(ps.values(), qs.values()))
        if None in made:
            raise MissingComposite(pairs[made.index(None)])
        bad = next((k for k, h in enumerate(made) if h not in pos), None)
        if bad is not None:
            raise CompositeEndpointViolation((*pairs[bad], made[bad]))
        return np.array([pos[h] for h in made], np.int64).reshape(len(ps), len(qs))

    return composer


def relation_category(names, related, mid):
    """One morphism ``mid(x, y)`` from x to y for each related pair."""
    names = sorted(str(n) for n in names)
    blocks = {(x, y): {(): mid(x, y)} for x in names for y in names if related(x, y)}
    return assemble({x: () for x in names}, blocks, lambda x, p, q: ())


def product(factors, ob_id, mor_id):
    """The product of ``factors``, composed entry by entry."""
    tuples = list(itertools.product(*(C.objects for C in factors)))
    obs = {ob_id(t): t for t in tuples}
    blocks = {}
    for s, ss in obs.items():
        for t, ts in obs.items():
            homs = (C.hom(a, b) for C, a, b in zip(factors, ss, ts))
            block = {m: mor_id(m) for m in itertools.product(*homs)}
            if block:
                blocks[(s, t)] = block
    return assemble(
        {o: tuple(C.id_of(x) for C, x in zip(factors, t)) for o, t in obs.items()},
        blocks,
        lambda x, p, q: tuple(C.comp(f, g) for C, f, g in zip(factors, p, q)),
    )


def product_category(X, Y):
    return product((X, Y), lambda t: "(%s@%s)" % t, lambda t: "(%s@%s)" % t)


def slice_category(C, x):
    """Objects are morphisms into x; maps are commuting triangles."""
    objs = [f for f in C.morphisms if C.tgt[f] == x]
    tris = {}
    for f in objs:
        for g in objs:
            for h in C.hom(C.src[f], C.src[g]):
                if C.comp(h, g) == f:
                    tris.setdefault((f, g), {})[h] = "%s~%s~%s" % (f, h, g)
    return assemble({f: C.id_of(C.src[f]) for f in objs}, tris, lambda x, p, q: C.comp(p, q))


def arrow_category(C):
    """Morphisms of C as objects, commuting squares as morphisms."""
    sqs = {}
    for f in C.morphisms:
        for g in C.morphisms:
            for u in C.hom(C.src[f], C.src[g]):
                for v in C.hom(C.tgt[f], C.tgt[g]):
                    if C.comp(u, g) == C.comp(f, v):
                        sqs.setdefault((f, g), {})[(u, v)] = "%s~%s~%s~%s" % (f, u, v, g)
    return assemble(
        {f: (C.id_of(C.src[f]), C.id_of(C.tgt[f])) for f in C.morphisms},
        sqs,
        lambda x, sq, sq2: (C.comp(sq[0], sq2[0]), C.comp(sq[1], sq2[1])),
    )


def gpow_fiber(G, n):
    """The one-object groupoid G^n; morphisms are n-tuples of elements."""
    blocks = {("*", "*"): {t: "(%s)" % ",".join(t) for t in itertools.product(G.elements, repeat=n)}}
    return assemble(
        {"*": (G.unit,) * n},
        blocks,
        lambda x, u, v: tuple(G.mul(b, a) for a, b in zip(u, v)),
    )


def group_as_category(G):
    """The one-object groupoid of the group ``G``: a then b is b·a."""
    blocks = {("*", "*"): {e: e for e in G.elements}}
    return assemble({"*": G.unit}, blocks, lambda x, a, b: G.mul(b, a))
