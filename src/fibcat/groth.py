"""The Grothendieck construction and the theory of fibrations it carries.

Total-category objects are pairs (x, a) of a base object and a fiber object;
morphisms are pairs (f, k) with f: x→y in the base and k: a → M(f)(b) in the
fiber over x.  Composition twists the second factor through the arrow
functors and the compositor:

    (g, l)∘(f, k) = (g∘f,  mu[f,g](c) ∘ M(f)(l) ∘ k)

Identities are (id_x, eta_x(a)), which is (id_x, id_a) whenever the unitors
are identities.

``grothendieck`` lays out the hom-set block of X = (x, a) and Y = (y, b) as
one segment per base morphism f: x→y, in base order, holding the payloads
(f, k, b) for k in hom(a, M(f)(b)) in sorted order; it records where each
segment starts.  Its composer composes whole pairs of blocks with integer
gathers, never a Python step per composite, on the stored codings of the
fibers, joined as the coding of their disjoint union, and of the base (see
``core.Coding``): M(f) becomes an array over codes and mu[f, g](c) a code.
For the entries (f, k, b) of block (X, Y) and (g, l, c) of the blocks
(Y, Z):

    1. u = M(f)(l);mu[f, g](c), which does not depend on a: composed once
       per Y, for every f into y and every entry out of Y;
    2. the position of k;u in hom(a, M(f;g)(c)), from the cell of u in the
       row of k;
    3. plus the start of the segment of f;g in block (X, Z).

The three are gathered for all of (X, Y) against all the blocks out of Y
at once, a round of rows at a time.  A composite whose segment f;g is not in
block (X, Z) (an arrow or compositor with the wrong target), or whose fiber
pair is not composable (an image or a compositor component that starts
elsewhere), is masked and gets a position past every block, which
``assemble`` rejects as a ``CompositeEndpointViolation``.  Only an indexed
category built without ``validate_indexed`` has such composites;
``tests/core_reference.py`` keeps the formula above, one composite at a
time, as the oracle.

For any functor P, phi: a→b over f: x→y is cartesian when, for every object
t, psi ↦ (P(psi), psi;phi) is a bijection from hom(t, a) onto the pairs
(g: P(t)→x, theta: t→b) with P(theta) = g;f: each hom-square is a pullback
of sets, the per-object form ``limits`` uses for pullback terminality.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import (
    Check,
    FinCat,
    CategoryError,
    UnknownMorphism,
    assemble,
    subcategory,
)
from .functors import FinFunctor, NatTrans, validate_functor
from .indexed import IndexedCat


class FibrationError(CategoryError):
    pass


class NotAFibration(FibrationError):
    pass


class TriangleDoesNotCommute(FibrationError):
    pass


@dataclass(frozen=True)
class TotalMor:
    base_part: str
    fiber_part: str


@dataclass(frozen=True, eq=False)
class GrothResult:
    """Total category and projection, plus the pair encodings both ways."""

    indexed: IndexedCat
    total: FinCat
    proj: FinFunctor
    obj_of: dict  # total object id -> (x, a)
    mor_of: dict  # total morphism id -> TotalMor
    obj_id: dict  # (x, a) -> total object id
    mor_id: dict  # (f, k, b) -> total morphism id


def pair_id(a: str, b: str) -> str:
    """Id of the pair (a, b): a total-category object, and an object or a
    morphism of ``generators.product_category``, which shares the format so
    that the total category of a constant indexed category is the product
    on the nose."""
    return "(%s@%s)" % (a, b)


def _enc_mor(f: str, k: str, b: str) -> str:
    # The target fiber object disambiguates (f, k) when M(f) identifies
    # fiber objects; without it distinct morphisms could share an id.
    return "(%s@%s@%s)" % (f, k, b)


def grothendieck(M: IndexedCat) -> GrothResult:
    """Build and fully validate the total category and its projection."""
    base, fibers, arrows = M.base, M.fibers, M.arrows
    obj_id, obj_of = {}, {}
    for x in base.objects:
        for a in fibers[x].objects:
            t = pair_id(x, a)
            obj_id[(x, a)] = t
            obj_of[t] = (x, a)
    if len(obj_of) != len(obj_id):
        raise CategoryError("total object id collision")

    # A morphism (f, k): (x, a) → (y, b) has payload (f, k, b); the segment
    # of f in the block of (x, a) and (y, b) starts at segments[block][f].
    mor_id, blocks, segments = {}, {}, {}
    for f in base.morphisms:
        x, y = base.src[f], base.tgt[f]
        fib_x, Mf = fibers[x], arrows[f]
        for b in fibers[y].objects:
            mfb = Mf.ob(b)
            for a in fib_x.objects:
                ks = fib_x.hom(a, mfb)
                if ks:
                    xy = (obj_id[(x, a)], obj_id[(y, b)])
                    block = blocks.setdefault(xy, {})
                    segments.setdefault(xy, {})[f] = len(block)
                    for k in ks:
                        block[(f, k, b)] = mor_id[(f, k, b)] = _enc_mor(f, k, b)
    mor_of = {t: TotalMor(f, k) for (f, k, _), t in mor_id.items()}
    if len(mor_of) != len(mor_id):
        raise CategoryError("total morphism id collision")

    identities = {
        obj_id[(x, a)]: (base.id_of(x), M.eta(x).at(a), a)
        for x in base.objects
        for a in fibers[x].objects
    }
    total = assemble(identities, blocks, _block_composer(M, obj_of, blocks, segments))
    proj = validate_functor(
        total,
        base,
        {t: xa[0] for t, xa in obj_of.items()},
        {t: tm.base_part for t, tm in mor_of.items()},
    )
    return GrothResult(M, total, proj, obj_of, mor_of, obj_id, mor_id)


_ROUND_CELLS = 1 << 16  # composites gathered per numpy round


def _block_composer(M: IndexedCat, obj_of: dict, blocks: dict, segments: dict):
    """The composer of the total blocks for ``assemble``, by the gathers of
    the module docstring.  Its arrays live as long as the composer, except
    that the u of a target Y lives until the last block into Y is composed,
    and the composites of a block (X, Y) with the blocks out of Y until
    ``compose`` has handed out the last of them or is asked for another
    (X, Y)."""
    base, fibers, arrows, mus = M.base, M.fibers, M.arrows, M.compositors
    past = sum(map(len, blocks.values()))  # a position past every block
    nth = {x: i for i, x in enumerate(base.objects)}

    # The codings of the fibers joined into one of their disjoint union: the
    # codes, object numbers and cells of the i-th fiber start at code0[i],
    # obj0[i] and cell0[i].  The code ``none`` stands for no morphism, with
    # endpoints -1 and -2.  offset[k] is k's place among the morphisms out
    # of its source, so the cell of (k, l) is row[k] + offset[l], and
    # position[cell] is the place of the cell's composite in its hom-set.
    codings = [fibers[x].coding for x in base.objects]
    code0, obj0, cell0 = [0], [0], [0]
    for c in codings:
        code0.append(code0[-1] + len(c.ids))
        obj0.append(obj0[-1] + len(c.out) - 1)
        cell0.append(cell0[-1] + len(c.cells))
    none = code0[-1]

    def joined(arrays, *end):
        return np.concatenate([*arrays, np.array(end, np.int32)], dtype=np.int32)

    src = joined((c.src + o for c, o in zip(codings, obj0)), -1)
    tgt = joined((c.tgt + o for c, o in zip(codings, obj0)), -2)
    offset = joined((np.arange(len(c.ids)) - c.out[c.src] for c in codings), 0)
    row = joined((c.row[:-1] + o for c, o in zip(codings, cell0)), cell0[-1])
    composite = joined(c.cells + o for c, o in zip(codings, code0))
    position = joined(c.positions()[c.cells] for c in codings)
    numbers = [{a: j for j, a in enumerate(fibers[x].objects)} for x in base.objects]
    targets_of = [c.tgt.tolist() for c in codings]

    # The base's coding: the cell of (f, g) is b_row[f] + b_offset[g].
    B = base.coding
    base_code, b_row, b_index = B.code, B.row, B.positions()
    b_offset, b_position = np.arange(len(B.ids)) - B.out[B.src], b_index[B.cells]

    # mu[mu_at[cell] + c]: the code of mu[f, g](c), for the base cell of
    # (f, g) and the number of c; none where it does not end at M(f;g)(c).
    bf, bg = B.pairs()

    def mu_codes():
        for f, g, h in zip(bf.tolist(), bg.tolist(), B.cells.tolist()):
            f, g, h = B.ids[f], B.ids[g], B.ids[h]
            i = nth[base.src[f]]
            code, targets, number = codings[i].code, targets_of[i], numbers[i]
            comps, ob = mus[(f, g)].components, arrows[h].on_objects
            for c in fibers[base.tgt[g]].objects:
                k = code.get(comps.get(c), -1)
                yield k if k >= 0 and targets[k] == number.get(ob.get(c), -1) else -1

    z = B.tgt[bg]
    width = np.array([len(fibers[x].objects) for x in base.objects], np.int64)[z]
    mu = np.fromiter(mu_codes(), np.int32, int(width.sum()))
    mu = np.where(mu < 0, none, mu + np.repeat(np.array(code0, np.int32)[B.src[bf]], width))
    mu_at = np.cumsum(width) - width - np.array(obj0)[z]

    # Row r of image[y] and image_ob[y] is M(f) on the codes and on the
    # objects of the fiber over y, for the r-th base morphism f into y; none
    # and -3 where the image is none of the fiber over src f.
    into = {}
    for f in base.morphisms:
        into.setdefault(base.tgt[f], []).append(f)
    into_code, image, image_ob, into_row = {}, {}, {}, {}
    for y, fs in into.items():
        into_row.update((f, r) for r, f in enumerate(fs))
        into_code[y] = np.array([base_code[f] for f in fs], np.int32)
        on_codes, on_objects = [], []
        for f in fs:
            i = nth[base.src[f]]
            code, number, Mf = codings[i].code, numbers[i], arrows[f]
            ks = [code.get(m, -1) for m in map(Mf.on_morphisms.get, codings[nth[y]].ids)]
            obs = [number.get(o, -1) for o in map(Mf.on_objects.get, fibers[y].objects)]
            on_codes.append([k + code0[i] if k >= 0 else none for k in ks])
            on_objects.append([o + obj0[i] if o >= 0 else -3 for o in obs])
        image[y] = np.array(on_codes, np.int32).reshape(len(fs), -1)
        image_ob[y] = np.array(on_objects, np.int32).reshape(len(fs), -1)

    # The blocks by source, each source's in block order, as one run of
    # segments and one run of entries.  Per segment of base morphism h in
    # block ((x, a), (y, b)): the code of h, its row into y, the number of
    # b, the index of (y, b) among the targets of (x, a), the block's region
    # and the segment's start in the block; per entry, its segment, that
    # segment's index in its block and the code of its fiber part.  From
    # region[block] on, ``starts`` holds the start of the segment of each
    # morphism of the base hom-set, ``past`` where there is none, as from 0.
    outs = {}
    for x, y in blocks:
        outs.setdefault(x, []).append(y)
    hs, cut_at, firsts, per_block, run, region = [], [], [], [], {}, {}
    n_starts, n_entries = max(map(len, base.homs.values()), default=0), 0
    for x, ys in outs.items():
        x0, a = obj_of[x]
        i0, hom_first = code0[nth[x0]], codings[nth[x0]].start
        for i, y in enumerate(ys):
            (y0, b), cut, n = obj_of[y], segments[(x, y)], len(blocks[(x, y)])
            run[(x, y)] = slice(len(hs), len(hs) + len(cut)), slice(n_entries, n_entries + n)
            region[(x, y)], b_number = n_starts, obj0[nth[y0]] + numbers[nth[y0]][b]
            per_block.append((len(cut), b_number, i, n_starts, n_entries))
            hs += cut
            cut_at += cut.values()
            firsts += [i0 + hom_first[(a, arrows[h].ob(b))] for h in cut]
            n_starts += len(base.homs[(x0, y0)])
            n_entries += n
    counts, seg_b, seg_i, seg_region, block_at = np.array(per_block, np.int32).reshape(-1, 5).T
    seg_b, seg_i, seg_region = (np.repeat(v, counts) for v in (seg_b, seg_i, seg_region))
    seg_h = np.fromiter(map(base_code.__getitem__, hs), np.int32, len(hs))
    seg_into = np.fromiter(map(into_row.__getitem__, hs), np.int32, len(hs))
    seg_start = np.array(cut_at, np.int32)
    seg_at = np.repeat(block_at, counts) + seg_start  # each segment's first entry
    sizes = np.diff(np.append(seg_at, n_entries))
    starts = np.full(n_starts, past, np.int32)
    starts[seg_region + b_index[seg_h]] = seg_start
    entry_seg = np.repeat(np.arange(len(hs), dtype=np.int32), sizes)
    entry_kth = entry_seg - np.repeat(np.cumsum(counts) - counts, counts)[entry_seg]
    shift = np.array(firsts, np.int32) - seg_at
    entry_code = np.arange(n_entries, dtype=np.int32) + np.repeat(shift, sizes)
    entry_into = seg_into[entry_seg]
    entry_row = row[entry_code]
    columns, later, rows = {}, {}, {}
    uses = Counter(y for _, y in blocks)  # the blocks into y not yet composed

    def out_of(y):
        """The segments and the entries of the blocks out of y, each
        entry's segment among them, each segment's index among the blocks,
        and each block's entries among them."""
        if y not in columns:
            zs = outs[y]
            (s0, e0), (s1, e1) = run[(y, zs[0])], run[(y, zs[-1])]
            s, e = slice(s0.start, s1.stop), slice(e0.start, e1.stop)
            where = {z: slice(run[(y, z)][1].start - e.start, run[(y, z)][1].stop - e.start)
                     for z in zs}
            columns[y] = s, e, entry_seg[e] - s.start, seg_i[s], where
        return columns[y]

    def after(y):
        """For the i-th base morphism f into y0, y = (y0, b), and the j-th
        entry (g, l, c) out of y: the offset of u = M(f)(l);mu[f, g](c) among
        the morphisms out of M(f)(b), and the mask of the (i, j) for which
        there is no such u; and per segment of g, the position of f;g in its
        base hom-set."""
        if y not in later:
            y0, b = obj_of[y]
            s, e, g_seg = out_of(y)[:3]
            cell = b_row[into_code[y0]][:, None] + b_offset[seg_h[s]]
            mu_fl = mu[mu_at[cell] + seg_b[s]].take(g_seg, axis=1)
            mapped = image[y0].take(entry_code[e] - code0[nth[y0]], axis=1)
            source = image_ob[y0][:, numbers[nth[y0]][b], None]
            ok = (src[mapped] == source) & (tgt[mapped] == src[mu_fl])
            u = composite[np.where(ok, row[mapped] + offset[mu_fl], 0)]
            later[y] = np.where(ok, offset[u], 0), ~ok, b_position[cell]
        return later[y]

    def composites(x, y):
        """Entry (i, j): the position in block (x, z) of the i-th entry of
        block (x, y) then the j-th entry out of y, or ``past`` if it is not
        there."""
        (s, e), (_, _, g_seg, z_seg, _), (u, no_u, fg) = run[(x, y)], out_of(y), after(y)
        uses[y] -= 1
        if not uses[y]:
            del later[y]
        zs = np.fromiter((region.get((x, z), 0) for z in outs[y]), np.int32, len(outs[y]))
        start = starts[fg.take(seg_into[s], axis=0) + zs[z_seg]]
        # k;u by the cell of k, its position in its hom-set, then in block
        # (x, z), past every block where there is no u; a round of rows at a
        # time, so that no temporary, the intp copy of an index that
        # ``take`` makes included, outgrows a round
        into, k_row, kth = entry_into[e], entry_row[e], entry_kth[e]
        at = np.empty((len(into), len(g_seg)), np.int32)
        step = max(1, _ROUND_CELLS // max(1, len(g_seg)))
        for i in range(0, len(into), step):
            r = slice(i, i + step)
            cells = u.take(into[r], axis=0)
            cells += k_row[r, None]
            cells = position.take(cells)
            cells += start.take(kth[r], axis=0).take(g_seg, axis=1)
            np.copyto(cells, past, where=no_u.take(into[r], axis=0))
            at[r] = cells
        return np.minimum(at, past, out=at)

    def compose(x, y, z):
        if (x, y) not in rows:
            rows.clear()
            rows[(x, y)] = composites(x, y)
        at = rows[(x, y)][:, out_of(y)[4][z]]
        if z == outs[y][-1]:
            rows.clear()
        return at

    return compose


# ---------------------------------------------------------------------------
# Cartesian morphisms and fibrations, for arbitrary functors
# ---------------------------------------------------------------------------


def _over_map(P: FinFunctor) -> dict:
    """Total morphisms grouped by (base image, total target), cached."""
    over = P.cache("over")
    if not over:
        for phi in P.source.morphisms:
            over.setdefault((P.mor(phi), P.source.tgt[phi]), []).append(phi)
    return over


def is_cartesian(P: FinFunctor, phi: str) -> bool:
    """Full universal property: the hom-set bijection of the module
    docstring at every t, as equal sizes and no two psi with one image,
    counted on the cells of the two codings with ``P.code_map``.

    Per t, |hom(t, a)| must equal the number of pairs: the sum over theta:
    t→b of the number of g: P(t)→x with g;f = P(theta), read off a count of
    every g;f, as the source of g;f is that of g.  An object with no map
    into b has no pair and no map into a either, so the sizes are compared
    at every object at once.  No two psi may share (P(psi), psi;phi); as
    psi;phi starts at t, pairs from distinct t never meet, so the pairs of
    all t are compared at once."""
    A, X = P.source, P.target
    if phi not in A.src:
        raise UnknownMorphism(phi)
    cache = P.cache("cartesian")
    if phi in cache:
        return cache[phi]
    ac, xc, m = A.coding, X.coding, P.code_map
    p = ac.code[phi]
    f, psis, thetas = m[p], ac.into[ac.src[p]], ac.into[ac.tgt[p]]
    sizes = np.bincount(ac.src[psis], minlength=len(A.objects))
    over_f = np.bincount(xc.cells[xc.cell(xc.into[xc.src[f]], f)], minlength=len(X.morphisms))
    pairs = np.bincount(ac.src[thetas], weights=over_f[m[thetas]], minlength=len(A.objects))
    images = m[psis] * len(A.morphisms) + ac.cells[ac.cell(psis, p)]
    cache[phi] = result = np.array_equal(sizes, pairs) and len(np.unique(images)) == len(psis)
    return result


def fiber_objects(P: FinFunctor, x: str) -> tuple:
    return tuple(t for t in P.source.objects if P.ob(t) == x)


def fiber(P: FinFunctor, x: str) -> FinCat:
    """Subcategory of everything sitting over x and id_x."""
    P.target.require_object(x)
    cache = P.cache("fiber")
    if x in cache:
        return cache[x]
    A = P.source
    idx = P.target.id_of(x)
    fib = subcategory(A, fiber_objects(P, x), [m for m in A.morphisms if P.mor(m) == idx])
    cache[x] = fib
    return fib


def fiber_inclusion(P: FinFunctor, x: str) -> FinFunctor:
    fib = fiber(P, x)
    return validate_functor(
        fib,
        P.source,
        {o: o for o in fib.objects},
        {m: m for m in fib.morphisms},
    )


def _least_lifts(P: FinFunctor):
    """The least cartesian lift of each (f, b), identities for identities,
    with f in base order and b in fiber order, and the first (f, b) that has
    no cartesian lift (None when every one has)."""
    X, A = P.target, P.source
    over = _over_map(P)
    lifts = {}
    for f in X.morphisms:
        for b in fiber_objects(P, X.tgt[f]):
            candidates = (A.id_of(b),) if X.is_identity(f) else over.get((f, b), ())
            phi = next((phi for phi in candidates if is_cartesian(P, phi)), None)
            if phi is None:
                return lifts, (f, b)
            lifts[(f, b)] = phi
    return lifts, None


def is_fibration(P: FinFunctor) -> Check:
    """Every base morphism has a cartesian lift to every object over its target."""
    _, missing = _least_lifts(P)
    return Check(True) if missing is None else Check(False, missing)


@dataclass(frozen=True, eq=False)
class Cleaving:
    P: FinFunctor
    entries: dict  # (base morphism f, total object b over tgt f) -> lift

    def lift(self, f: str, b: str) -> str:
        return self.entries[(f, b)]

    def reindexed_object(self, f: str, b: str) -> str:
        return self.P.source.src[self.entries[(f, b)]]


def choose_cleaving(P: FinFunctor) -> Cleaving:
    """Deterministic cleaving: the least cartesian lift, identities for identities."""
    lifts, missing = _least_lifts(P)
    if missing is not None:
        raise NotAFibration(missing)
    return Cleaving(P, lifts)


def cartesian_factor(P: FinFunctor, phi: str, g: str, theta: str):
    """The unique psi over g with phi∘psi = theta; None when there is no
    such psi or more than one."""
    A = P.source
    found = None
    for psi in A.hom(A.src[theta], A.src[phi]):
        if P.mor(psi) == g and A.comp(psi, phi) == theta:
            if found is not None:
                return None
            found = psi
    return found


def reindexing(P: FinFunctor, cleaving: Cleaving, f: str) -> FinFunctor:
    """Fiber-to-fiber functor induced by the cleaving along f: x→y."""
    X = P.target
    x, y = X.src[f], X.tgt[f]
    fib_y, fib_x = fiber(P, y), fiber(P, x)
    on_objects = {b: cleaving.reindexed_object(f, b) for b in fib_y.objects}
    on_morphisms = {}
    A = P.source
    idx = X.id_of(x)
    for psi in fib_y.morphisms:
        b, b2 = fib_y.src[psi], fib_y.tgt[psi]
        theta = A.comp(cleaving.lift(f, b), psi)
        w = cartesian_factor(P, cleaving.lift(f, b2), idx, theta)
        if w is None:
            raise NotAFibration((f, b2))
        on_morphisms[psi] = w
    return validate_functor(fib_y, fib_x, on_objects, on_morphisms)


def canonical_lift(gr: GrothResult, f: str, b: str) -> str:
    """The lift (f, id) of f to the total object b over tgt(f)."""
    M = gr.indexed
    x = M.base.src[f]
    _, b_fib = gr.obj_of[b]
    return gr.mor_id[(f, M.fiber_at(x).id_of(M.arrow_at(f).ob(b_fib)), b_fib)]


def check_fibred_functor(H: FinFunctor, P: FinFunctor, Q: FinFunctor) -> Check:
    """H commutes with the projections and preserves cartesian morphisms."""
    if H.source is not P.source or H.target is not Q.source:
        raise TriangleDoesNotCommute("endpoint categories differ")
    for x in P.source.objects:
        if Q.ob(H.ob(x)) != P.ob(x):
            raise TriangleDoesNotCommute(("object", x))
    for m in P.source.morphisms:
        if Q.mor(H.mor(m)) != P.mor(m):
            raise TriangleDoesNotCommute(("morphism", m))
    for phi in P.source.morphisms:
        if is_cartesian(P, phi) and not is_cartesian(Q, H.mor(phi)):
            return Check(False, phi)
    return Check(True)


def check_fibred_nat_trans(beta: NatTrans, H: FinFunctor, K: FinFunctor, P: FinFunctor, Q: FinFunctor) -> Check:
    """All components of beta are vertical (project to identities)."""
    check_fibred_functor(H, P, Q)
    check_fibred_functor(K, P, Q)
    for a in P.source.objects:
        comp = beta.at(a)
        if Q.mor(comp) != P.target.id_of(P.ob(a)):
            return Check(False, (a, comp))
    return Check(True)


def fiber_iso_to_indexed_fiber(gr: GrothResult, x: str) -> FinFunctor:
    """The canonical isomorphism M(x) → fiber of the projection over x."""
    M = gr.indexed
    fib_x = M.fiber_at(x)
    fib_total = fiber(gr.proj, x)
    eta = M.eta(x)
    idx = M.base.id_of(x)
    on_objects = {a: gr.obj_id[(x, a)] for a in fib_x.objects}
    on_morphisms = {}
    for k in fib_x.morphisms:
        b = fib_x.tgt[k]
        on_morphisms[k] = gr.mor_id[(idx, fib_x.comp(k, eta.at(b)), b)]
    return validate_functor(fib_x, fib_total, on_objects, on_morphisms)
