"""Builders for every worked example, truncated to finite size.

All identifier schemes are fixed and canonical so that generated categories
are deterministic bit for bit:

  FI objects            decimal numerals "0".."N"
  injections m→n        "m>n:i0,i1,..."   (0-based image tuple)
  decorated injections  "m>n:i0,...:d0,..."
  tuple fibers          "(d0,d1,...)"
  product pairs         "(left@right)"
  slice morphisms       "obj~underlying~obj"

Every category here is built through ``core.from_cells``, whose checks
validate it.  FI, FI_G and coloured FI share one numpy builder,
``_injection_category``, which composes a whole pair of hom-set blocks at
once: images by a gather and ranked by lookup, decorations through the
cells of the group's one-object groupoid.  Every other builder lists each
morphism by its parts, the codes of its components in factor categories,
and ``from_parts`` composes them on the factors' cells: products and powers
(the entries; a group power ``gpow_fiber`` is a power of the group's
groupoid), slices (the triangle's h), arrow categories (the square's u and
v) and relation categories (no parts).  The triangles and squares are found
on the cells too.  Either way a composite that falls outside its target
block raises ``CompositeEndpointViolation``.  The indexed builders hand
their arrows to ``indexed.validate_indexed`` as bare ``FinFunctor`` tables,
which it checks all at once, so each arrow is checked once.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .core import FinCat, CategoryError, CompositeEndpointViolation, from_cells, from_parts
from .functors import FinFunctor, identity_functor
from .groth import pair_id
from .groups import GroupTable, trivial_group
from .indexed import IndexedCat, validate_indexed
from .limits import Cospan, pullback


class MissingPullback(CategoryError):
    pass


# ---------------------------------------------------------------------------
# Small generic categories
# ---------------------------------------------------------------------------


def _relation_category(names, related, mid) -> FinCat:
    """One morphism ``mid(x, y)`` from x to y for each related pair; ``related``
    must be reflexive and transitive."""
    names = sorted(str(n) for n in names)
    if len(set(names)) != len(names):
        raise CategoryError("duplicate object identifiers")
    blocks = {(x, y): {(): mid(x, y)} for x in names for y in names if related(x, y)}
    return from_parts({x: () for x in names}, blocks, ())


def terminal_category() -> FinCat:
    return _relation_category(["*"], lambda x, y: True, lambda x, y: "id")


def discrete_category(names) -> FinCat:
    return _relation_category(names, lambda x, y: x == y, lambda x, y: "id_%s" % x)


def codiscrete_category(names) -> FinCat:
    """Exactly one morphism between every ordered pair of objects."""
    return _relation_category(names, lambda x, y: True, lambda x, y: "%s_%s" % (x, y))


def thin_category(names, leq) -> FinCat:
    """Poset as a category; ``leq(x, y)`` decides x ≤ y (must be a partial order)."""
    return _relation_category(names, leq, lambda x, y: "%s_to_%s" % (x, y))


def chain_poset(n: int) -> FinCat:
    names = ["p%d" % i for i in range(n)]
    return thin_category(names, lambda x, y: int(x[1:]) <= int(y[1:]))


def square_poset() -> FinCat:
    """The commutative square a ≤ b ≤ d, a ≤ c ≤ d (a lattice)."""
    order = {"a": {"a", "b", "c", "d"}, "b": {"b", "d"}, "c": {"c", "d"}, "d": {"d"}}
    return thin_category(order, lambda x, y: y in order[x])


def cospan_poset() -> FinCat:
    """b ≤ d ≥ c with no meet; the cospan (b→d, c→d) has no pullback."""
    order = {"b": {"b", "d"}, "c": {"c", "d"}, "d": {"d"}}
    return thin_category(order, lambda x, y: y in order[x])


def span_poset() -> FinCat:
    """b ≥ a ≤ c with no join; spans out of a admit no completing square."""
    order = {"a": {"a", "b", "c"}, "b": {"b"}, "c": {"c"}}
    return thin_category(order, lambda x, y: y in order[x])


# ---------------------------------------------------------------------------
# FI and its decorated variants
# ---------------------------------------------------------------------------


def injections(m: int, n: int) -> tuple:
    """All injections m→n as image tuples, lexicographically ordered."""
    return tuple(itertools.permutations(range(n), m))


def inj_id(m, n, imgs) -> str:
    return "%s>%s:%s" % (m, n, ",".join(map(str, imgs)))


def parse_inj(mid: str):
    head, imgs = mid.split(":", 1)
    m, n = head.split(">")
    images = tuple(int(i) for i in imgs.split(",")) if imgs else ()
    return int(m), int(n), images


def fi_truncated(N: int) -> FinCat:
    """Finite sets 0..N and injections, composition by function composition."""
    plain = trivial_group()
    return _injection_category(
        {str(n): (plain,) * n for n in range(N + 1)},
        lambda s, t: injections(int(s), int(t)),
        lambda s, t, imgs, decs: inj_id(s, t, imgs),
    )


def _radix(images, n):
    """The base-``n`` code of each image tuple along the last axis, ``int32`` where it fits."""
    code = np.zeros(images.shape[:-1], np.int32 if n ** images.shape[-1] < 1 << 31 else np.int64)
    for k in range(images.shape[-1]):
        code *= n
        code += images[..., k]
    return code


def _composite_coder(f_img, n_y):
    """``code(g_img, n_z)``: the base-``n_z`` codes of the images of g∘f, a
    row per image ``g_img`` of g and a column per image ``f_img`` of f."""
    n_f, k = f_img.shape
    ops = [(2 * (h * math.perm(n_y, h) + (k - h) * math.perm(n_y, k - h)) + 3 * n_f, h) for h in range(1, k)]
    cost, h = min(ops, default=(2 * k * n_f, 0))
    if cost >= 2 * k * n_f:
        return lambda g_img, n_z: _radix(g_img[:, f_img], n_z)
    heads, head = np.unique(f_img[:, :h], axis=0, return_inverse=True)
    tails, tail = np.unique(f_img[:, h:], axis=0, return_inverse=True)

    def code(g_img, n_z):
        made = (_radix(g_img[:, heads], n_z) * n_z ** (k - h))[:, head.ravel()]
        return made + _radix(g_img[:, tails], n_z)[:, tail.ravel()]

    return code


def _injection_category(points: dict, images, mid) -> FinCat:
    """The category of decorated injections between the objects of ``points``.

    ``points[s]`` gives the group of each point of s, ``images(s, t)`` the
    image tuples of the injections s→t in block order (an injection keeps
    each point's group) and ``mid(s, t, imgs, decs)`` the id of one.  A
    block lists each image with every decoration, one element of its point's
    group per source point, in ``itertools.product`` order: the morphism at
    position i·D + k of hom(s, t), D the number of decorations of s, is image
    i with decoration k, and k is the mixed-radix code of the decoration's
    element indices, last point fastest.

    f: s→t then g: t→u has image g_img[f_img] and decoration
    ``mul(f_dec[k], g_dec[f_img[k]])`` at k, read off the cells of the
    group's ``category``.  The cells are written through
    ``core.from_cells`` a pair of blocks (x, y), (y, z) at a time, in sorted
    order: (x, y), then z.  A dense ``int32`` table per block (x, z), held
    while x is composed, maps the base-|z| code Σ_i |z|^(k-1-i)·g[f_i] of
    each image to its position and any other code one past the end, where
    the first such position raises ``CompositeEndpointViolation((f, g,
    position))``.  Where all three blocks list their ids in code order (as
    FI_N does for N ≤ 10), a position plus the first code of (x, z)
    is the code and goes straight into the cells; else positions are mapped
    to codes and scattered.  ``_composite_coder`` codes the images in k
    passes, 2k element operations a cell, or from each g's codes of f's
    heads of h points and tails of k - h (at most P(|y|, h) and P(|y|,
    k - h), at 2h and 2(k - h) operations each), then two gathers and an
    add a cell: whichever counts fewer operations.
    """
    objects = sorted(points)
    decs, muls, units, img, ids, later, identity = {}, {}, {}, {}, {}, {}, dict.fromkeys(objects)
    for s in objects:
        groups = points[s]
        sizes = [len(G) for G in groups]
        decs[s] = np.array(list(itertools.product(*map(range, sizes))), np.intp).reshape(math.prod(sizes), -1)
        weights = [math.prod(sizes[k + 1 :]) for k in range(len(sizes))]
        # the code of ab at [a, b]: the cell of b then a in G's groupoid
        muls[s] = [G.category.coding.cells.reshape(len(G), -1).T * w for G, w in zip(groups, weights)]
        units[s] = sum(G.elements.index(G.unit) * w for G, w in zip(groups, weights))
        elements, unit = [G.elements for G in groups], tuple(range(len(groups)))
        for t in objects:
            ims = images(s, t)
            if ims:
                img[(s, t)] = np.array(ims, np.int32).reshape(len(ims), len(groups))
                ids[(s, t)] = [mid(s, t, i, d) for i in ims for d in itertools.product(*elements)]
                later.setdefault(s, []).append(t)
            if t == s and unit in ims:
                identity[s] = ids[(s, s)][list(ims).index(unit) * len(decs[s]) + units[s]]
    homs = {xy: tuple(sorted(ms)) for xy, ms in ids.items()}

    def fill(coding):
        codes = {xy: np.array([coding.code[m] for m in ms], np.int64) for xy, ms in ids.items()}
        in_order = {xy: bool((np.diff(c) > 0).all()) for xy, c in codes.items()}  # ids listed by code
        for x, ys in later.items():
            rank = {}  # the tables of the blocks out of x, held only while x is composed
            for z in ys:
                rank[z] = np.full(len(points[z]) ** len(points[x]), len(img[(x, z)]), np.int32)
                rank[z][_radix(img[(x, z)], len(points[z]))] = np.arange(len(img[(x, z)]))
            for y in ys:
                f_img, f_dec, g_dec, o = img[(x, y)], decs[x], decs[y], coding.start[(x, y)]
                coder = _composite_coder(f_img, len(points[y]))
                f_at = codes[(x, y)] - o
                rows = coding.cells[coding.row[o] : coding.row[o + len(f_at)]].reshape(len(f_at), -1)
                for z in later[y]:
                    # at[image of f, image of g]; dec[decoration of f, image of f, decoration of g]
                    at = rank[z][coder(img[(y, z)], len(points[z]))].T
                    if len(f_dec) > 1 or len(g_dec) > 1:
                        dec = np.zeros((len(f_dec), len(f_img), len(g_dec)), np.int32)
                        for k, mul in enumerate(muls[x]):
                            dec += mul[f_dec[:, k, None, None], g_dec[:, f_img[:, k]].T]
                        at = at[:, None, :, None] * len(f_dec) + dec.transpose(1, 0, 2)[:, :, None, :]
                        at = at.reshape(len(f_img) * len(f_dec), -1)
                    if at.max() >= len(ids[(x, z)]):
                        i, j = map(int, np.argwhere(at >= len(ids[(x, z)]))[0])
                        raise CompositeEndpointViolation((ids[(x, y)][i], ids[(y, z)][j], int(at[i, j])))
                    cols = codes[(y, z)] - coding.out[coding.src[codes[(y, z)][0]]]
                    if in_order[(x, y)] and in_order[(y, z)] and in_order[(x, z)]:
                        np.add(at, int(codes[(x, z)][0]), out=rows[:, cols[0] : cols[0] + len(cols)])
                    else:
                        rows[np.ix_(f_at, cols)] = codes[(x, z)][at]

    return from_cells(identity, homs, fill)


def _check_element_ids(G: GroupTable) -> None:
    for e in G.elements:
        if "," in e or ":" in e or ">" in e:
            raise CategoryError("group element id %r clashes with the id scheme" % e)


def dec_id(m, n, imgs, decs) -> str:
    return "%s>%s:%s:%s" % (m, n, ",".join(map(str, imgs)), ",".join(decs))


def parse_dec(mid: str):
    head, imgs, decs = mid.split(":")
    m, n = head.split(">")
    images = tuple(int(i) for i in imgs.split(",")) if imgs else ()
    return int(m), int(n), images, tuple(decs.split(",")) if decs else ()


def fi_g_direct(G: GroupTable, N: int) -> FinCat:
    """Injections decorated with one group element per source point."""
    _check_element_ids(G)
    return _injection_category(
        {str(n): (G,) * n for n in range(N + 1)},
        lambda s, t: injections(int(s), int(t)),
        dec_id,
    )


def tuple_id(parts) -> str:
    """The id ``(a,b,...)`` of a tuple of ids: a morphism of ``gpow_fiber``
    or an object of a power fiber."""
    return "(%s)" % ",".join(parts)


def gpow_fiber(G: GroupTable, n: int) -> FinCat:
    """The one-object groupoid G^n, the n-th power of ``G.category``;
    morphisms are n-tuples of elements."""
    return _product((G.category,) * n, lambda t: "*", tuple_id)


def _selections(entries, N: int, name):
    """``select(n, imgs)``: t ↦ (t[i] for i in imgs) from the n-tuples of
    ``entries``, n ≤ N, named by ``name`` in ``itertools.product`` order,
    each image found by its place in that order (one matrix product)."""
    names = [list(map(name, itertools.product(entries, repeat=n))) for n in range(N + 1)]
    digits = [np.array(list(itertools.product(range(len(entries)), repeat=n)), int) for n in range(N + 1)]

    def select(n, imgs):
        at = digits[n][:, list(imgs)] @ (len(entries) ** np.arange(len(imgs) - 1, -1, -1))
        return dict(zip(names[n], map(names[len(imgs)].__getitem__, at.tolist())))

    return select


def _power_indexed(inner: FinCat, N: int, ob_id, mor_id) -> IndexedCat:
    """The strict indexed category n ↦ inner^n over truncated FI, arrows by
    coordinate pullback along the injection; ``ob_id`` and ``mor_id`` name
    the tuples of objects and of morphisms of each power."""
    base = fi_truncated(N)
    on_objects = _selections(inner.objects, N, ob_id)
    on_morphisms = _selections(inner.morphisms, N, mor_id)
    fibers = {str(n): _product((inner,) * n, ob_id, mor_id) for n in range(N + 1)}
    arrows = {}
    for f in base.morphisms:
        m, n, imgs = parse_inj(f)
        arrows[f] = FinFunctor(fibers[str(n)], fibers[str(m)], on_objects(n, imgs), on_morphisms(n, imgs))
    return validate_indexed(base, fibers, arrows)


def indexed_gpow(G: GroupTable, N: int) -> IndexedCat:
    """The strict indexed category n ↦ G^n over truncated FI: every fiber is
    a power of the one groupoid ``G.category``, as in ``gpow_fiber``."""
    _check_element_ids(G)
    return _power_indexed(G.category, N, lambda t: "*", tuple_id)


# ---------------------------------------------------------------------------
# Constant indexed categories and products
# ---------------------------------------------------------------------------


def delta_const(X: FinCat, Y: FinCat) -> IndexedCat:
    """The constant indexed category: every fiber Y, every arrow the identity."""
    idf = identity_functor(Y)
    return validate_indexed(X, {x: Y for x in X.objects}, {f: idf for f in X.morphisms})


def _product(factors, ob_id, mor_id) -> FinCat:
    """Product of the categories ``factors``; ``ob_id`` and ``mor_id`` name
    tuples of objects and of morphisms, one entry per factor.  A morphism's
    parts are the codes of its entries."""
    tuples = list(itertools.product(*(C.objects for C in factors)))
    obs = {ob_id(t): t for t in tuples}
    if len(obs) != len(tuples):
        raise CategoryError("product object id collision")
    blocks = {}
    for s, ss in obs.items():
        for t, ts in obs.items():
            homs = [C.hom(a, b) for C, a, b in zip(factors, ss, ts)]
            if all(homs):
                codes = itertools.product(*(C.hom_codes(a, b).tolist() for C, a, b in zip(factors, ss, ts)))
                blocks[(s, t)] = dict(zip(codes, map(mor_id, itertools.product(*homs))))
    units = [dict(zip(C.objects, C.coding.units.tolist())) for C in factors]
    return from_parts({o: tuple(map(dict.__getitem__, units, t)) for o, t in obs.items()}, blocks, factors)


def product_category(X: FinCat, Y: FinCat) -> FinCat:
    return _product((X, Y), lambda t: pair_id(*t), lambda t: pair_id(*t))


# ---------------------------------------------------------------------------
# Block permutations
# ---------------------------------------------------------------------------


def _mor_tuple_id(parts) -> str:
    """The id ``(f;g;...)`` of a morphism of a power fiber, its tuple of
    morphism ids joined with ';'."""
    return "(%s)" % ";".join(parts)


def block_perm_indexed(N: int, Q: int) -> IndexedCat:
    """Fibers are powers of truncated FI; arrows select coordinates."""
    return _power_indexed(fi_truncated(Q), N, tuple_id, _mor_tuple_id)


# ---------------------------------------------------------------------------
# Two-colour FI
# ---------------------------------------------------------------------------


def colored_strings(colors: str, N: int) -> list:
    """All strings over ``colors`` with at most N occurrences of each colour."""
    strings = itertools.chain(*(itertools.product(colors, repeat=k) for k in range(len(colors) * N + 1)))
    return sorted("".join(s) for s in strings if all(s.count(c) <= N for c in colors))


def fi_colored(color_groups: dict, N: int) -> FinCat:
    """Colour-preserving decorated injections between coloured finite sets."""
    colors = "".join(sorted(color_groups))
    for G in color_groups.values():
        _check_element_ids(G)

    def images(s, t):
        spos, tpos = ([[i for i, ch in enumerate(u) if ch == c] for c in colors] for u in (s, t))
        out = []
        for chosen in itertools.product(*map(itertools.permutations, tpos, map(len, spos))):
            image = dict(zip(itertools.chain(*spos), itertools.chain(*chosen)))
            out.append(tuple(image[i] for i in range(len(s))))
        return out

    return _injection_category(
        {s: tuple(color_groups[ch] for ch in s) for s in colored_strings(colors, N)},
        images,
        dec_id,
    )


# ---------------------------------------------------------------------------
# Slice indexed categories and arrow categories
# ---------------------------------------------------------------------------


def slice_category(C: FinCat, x: str) -> FinCat:
    """Objects are morphisms into x; maps are commuting triangles h;g = f,
    whose one part is the code of h, kept by id in its ``cache("slice")``.
    Each id met is checked once for '~'; a clash names the first met, in
    the order f, h, g of each triangle."""
    C.require_object(x)
    K = C.coding
    objs = [f for f in C.morphisms if C.tgt[f] == x]
    tris, h_of = {}, {}
    for f in objs:
        for g in objs:
            hs = C.hom_codes(C.src[f], C.src[g])
            for h in hs[K.cells[K.cell(hs, K.code[g])] == K.code[f]].tolist():
                tris.setdefault((f, g), {})[(h,)] = mid = "%s~%s~%s" % (f, K.ids[h], g)
                h_of[mid] = h
    clash = {m for m in {*objs, *map(K.ids.__getitem__, set(h_of.values()))} if "~" in m}
    if clash:
        met = (p for (f, g), block in tris.items() for (h,) in block for p in (f, K.ids[h], g))
        raise CategoryError("morphism id %r clashes with the slice id scheme" % next(filter(clash.__contains__, met)))
    units = K.units[K.src].tolist()
    S = from_parts({f: (units[K.code[f]],) for f in objs}, tris, (C,))
    S.cache("slice")["h"] = h_of
    return S


def _chosen_pullback(C: FinCat, j: str, f: str, choose=None):
    pb = pullback(C, Cospan(j, f))
    if pb is None:
        raise MissingPullback((j, f))
    if choose is not None:
        pb = choose(Cospan(j, f), pb) or pb
    return pb


def slice_indexed(C: FinCat, choose=None) -> IndexedCat:
    """Slices of C indexed by chosen pullbacks; non-strict in general.

    The compositor and unitor components are the mediating isomorphisms
    between iterated chosen pullbacks, read off the pullback mediator
    tables.  ``choose`` optionally overrides the canonical pullback with
    another representative (a ``limits.Pullback``, e.g. from
    ``limits.as_pullback``), which is how incoherent choices are exercised;
    each cospan's pullback is chosen once.
    """
    fibers, K = {x: slice_category(C, x) for x in C.objects}, C.coding
    chosen = functools.cache(lambda j, f: _chosen_pullback(C, j, f, choose))

    def triangles(rows) -> dict:
        """For each (key, at, s, pb, a, b) of ``rows()``, a and b codes: at
        [key][at], the triangle (s, w, leg1 of pb), w the mediator of pb at
        (s, a;b).  ``rows()`` is walked twice, first to read every a;b in
        one gather of the cells."""
        ab = np.fromiter((c for r in rows() for c in r[4:]), np.int64).reshape(-1, 2)
        made, out = map(K.ids.__getitem__, K.cells[K.cell(ab[:, 0], ab[:, 1])].tolist()), {}
        for (key, at, s, pb, _, _), v in zip(rows(), made):
            out.setdefault(key, {})[at] = "%s~%s~%s" % (s, pb.mediators[(C.src[s], s, v)], pb.leg1)
        return out

    # Every cospan the components need is one of these, so the first one
    # without a pullback raises here.
    on_o = {j: {f: chosen(j, f).leg1 for f in fibers[C.tgt[j]].objects} for j in C.morphisms}

    def arrow_rows():
        for j in C.morphisms:
            fib_y = fibers[C.tgt[j]]
            h_of = fib_y.cache("slice")["h"]
            for smid in fib_y.morphisms:
                pb_f, pb_g = chosen(j, fib_y.src[smid]), chosen(j, fib_y.tgt[smid])
                yield j, smid, pb_f.leg1, pb_g, K.code[pb_f.leg2], h_of[smid]

    def compositor_rows():
        for f, g, gf in zip(*(map(K.ids.__getitem__, k.tolist()) for k in (*K.pairs(), K.cells))):
            for q in fibers[C.tgt[g]].objects:
                pb_g = chosen(g, q)
                pb_fg = chosen(f, pb_g.leg1)
                yield (f, g), q, pb_fg.leg1, chosen(gf, q), K.code[pb_fg.leg2], K.code[pb_g.leg2]

    on_m = triangles(arrow_rows)
    arrows = {j: FinFunctor(fibers[C.tgt[j]], fibers[C.src[j]], on_o[j], on_m[j]) for j in C.morphisms}
    compositors = triangles(compositor_rows)
    unitors = {}
    for x in C.objects:
        comps = {}
        for f in fibers[x].objects:
            pb = chosen(C.id_of(x), f)
            w = pb.mediators[(C.src[f], f, C.id_of(C.src[f]))]
            comps[f] = "%s~%s~%s" % (f, w, pb.leg1)
        unitors[x] = comps

    return validate_indexed(C, fibers, arrows, compositors, unitors)


def _arrow_mid(f: str, u: str, v: str, g: str) -> str:
    # endpoints are part of the id: the same square (u, v) can relate
    # several pairs of arrow objects
    return "%s~%s~%s~%s" % (f, u, v, g)


def arrow_category(C: FinCat) -> FinCat:
    """Morphisms of C as objects, commuting squares u;g = f;v as morphisms,
    whose two parts are the codes of u and v.

    The squares are found one pair of hom-sets at a time: for f in hom(a,
    b) and g in hom(c, d), one comparison of the cells u;g against f;v, over
    every u in hom(a, c) and v in hom(b, d), finds them all.  They are
    listed by (f, g) in id order and then by the codes (u, v)."""
    K, objs = C.coding, C.morphisms
    found = [(np.empty(0, np.int64),) * 4]
    for a, b in K.start:
        for c, d in K.start:
            if (a, c) not in K.start or (b, d) not in K.start:
                continue
            fs, gs, us, vs = (C.hom_codes(*xy) for xy in ((a, b), (c, d), (a, c), (b, d)))
            fv = K.cells[K.cell(fs[:, None], vs)]
            ug = K.cells[K.cell(us[:, None], gs)]
            i, j, k, m = np.nonzero(fv[:, None, None, :] == ug.T[None, :, :, None])
            found.append((fs[i], gs[j], us[k], vs[m]))
    f, g, u, v = (np.concatenate(column) for column in zip(*found))
    rank = np.empty(len(objs), np.int64)
    rank[[K.code[m] for m in objs]] = np.arange(len(objs))
    order = np.lexsort((v, u, rank[g], rank[f]))
    f, g, u, v = f[order], g[order], u[order], v[order]
    sqs, names = {}, np.array(K.ids, object)
    for f, g, u, v, u_id, v_id in zip(names[f], names[g], u.tolist(), v.tolist(), names[u], names[v]):
        sqs.setdefault((f, g), {})[(u, v)] = _arrow_mid(f, u_id, v_id, g)
    units = K.units[np.stack((K.src, K.tgt), 1)].tolist()
    return from_parts({f: tuple(units[K.code[f]]) for f in objs}, sqs, (C, C))
