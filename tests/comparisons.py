"""Comparison functors between the worked examples of ``fibcat.generators``,
which only the tests use.

* ``fi_g_comparison``: the Grothendieck construction of n ↦ G^n against the
  decorated injections FI_G.
* ``product_check``: the total category of a constant indexed category
  against the product, and its projection against the first one.
* ``block_counting_functor``: block permutations to FI, by total size.
* ``fi_gh_comparison``: FI_G × FI_H against two-colour FI.
* ``codomain_check``: the total category of the slices against the arrow
  category, and the cartesian lifts of its fibration against pullback
  squares.
"""

from __future__ import annotations

from dataclasses import dataclass

from fibcat.core import FinCat
from fibcat.functors import (
    FinFunctor,
    FunctorProperties,
    compose_functors,
    functor_properties,
    functors_equal,
    validate_functor,
)
from fibcat.generators import (
    arrow_category,
    dec_id,
    delta_const,
    fi_colored,
    fi_g_direct,
    fi_truncated,
    indexed_gpow,
    inj_id,
    parse_dec,
    parse_inj,
    product_category,
    slice_indexed,
)
from fibcat.groth import GrothResult, NotAFibration, choose_cleaving, grothendieck, pair_id
from fibcat.groups import GroupTable
from fibcat.limits import Cospan, Square, is_pullback_square, pullback


def _arrow_mid(f: str, u: str, v: str, g: str) -> str:
    """The id of the square (u, v) from f to g in ``arrow_category``."""
    return "%s~%s~%s~%s" % (f, u, v, g)


def _parse_tuple_id(tid: str) -> tuple:
    inner = tid[1:-1]
    return tuple(inner.split(",")) if inner else ()


def _parse_mor_tuple(mid: str) -> tuple:
    inner = mid[1:-1]
    return tuple(inner.split(";")) if inner else ()


def fi_g_comparison(G: GroupTable, N: int, gr: GrothResult = None):
    """Comparison functor from the Grothendieck construction to the directly
    decorated category; decorations are inverted componentwise because the
    construction multiplies them in the opposite order."""
    gr = gr if gr is not None else grothendieck(indexed_gpow(G, N))
    direct = fi_g_direct(G, N)
    on_objects = {t: xa[0] for t, xa in gr.obj_of.items()}
    on_morphisms = {}
    for t, tm in gr.mor_of.items():
        m, n, imgs = parse_inj(tm.base_part)
        decs = _parse_tuple_id(tm.fiber_part)
        on_morphisms[t] = dec_id(m, n, imgs, tuple(G.inv[d] for d in decs))
    F = validate_functor(gr.total, direct, on_objects, on_morphisms)
    return F, functor_properties(F)


@dataclass(frozen=True)
class ProductCheck:
    iso: FinFunctor
    properties: FunctorProperties
    projection_agrees: bool


def product_check(X: FinCat, Y: FinCat, gr: GrothResult = None) -> ProductCheck:
    """The total category of the constant indexed category is the product."""
    gr = gr if gr is not None else grothendieck(delta_const(X, Y))
    P = product_category(X, Y)
    iso = validate_functor(
        gr.total,
        P,
        {t: pair_id(*xa) for t, xa in gr.obj_of.items()},
        {t: pair_id(tm.base_part, tm.fiber_part) for t, tm in gr.mor_of.items()},
    )
    props = functor_properties(iso)
    first = validate_functor(
        P,
        X,
        {pair_id(x, y): x for x in X.objects for y in Y.objects},
        {pair_id(f, g): f for f in X.morphisms for g in Y.morphisms},
    )
    agrees = functors_equal(compose_functors(iso, first), gr.proj)
    return ProductCheck(iso, props, agrees)


def block_counting_functor(gr: GrothResult, N: int, Q: int) -> FinFunctor:
    """Counting functor to FI: a partitioned set goes to its total size and a
    block map to the induced injection on underlying sets."""
    target = fi_truncated(N * Q)
    on_objects, sizes_of = {}, {}
    for t, (nstr, sizes_id) in gr.obj_of.items():
        sizes = tuple(int(s) for s in _parse_tuple_id(sizes_id))
        sizes_of[t] = sizes
        on_objects[t] = str(sum(sizes))
    on_morphisms = {}
    for t, tm in gr.mor_of.items():
        m, n, imgs = parse_inj(tm.base_part)
        src_sizes = sizes_of[gr.total.src[t]]
        tgt_sizes = sizes_of[gr.total.tgt[t]]
        offs = [0]
        for q in tgt_sizes:
            offs.append(offs[-1] + q)
        blocks = [parse_inj(p)[2] for p in _parse_mor_tuple(tm.fiber_part)]
        global_imgs = []
        for i in range(m):
            for local in blocks[i]:
                global_imgs.append(offs[imgs[i]] + local)
        on_morphisms[t] = inj_id(sum(src_sizes), sum(tgt_sizes), tuple(global_imgs))
    return validate_functor(gr.total, target, on_objects, on_morphisms)


@dataclass(frozen=True)
class GhComparison:
    functor: FinFunctor
    properties: FunctorProperties
    product: FinCat
    colored: FinCat


def fi_gh_comparison(G: GroupTable, H: GroupTable, N: int) -> GhComparison:
    """Compare FI_G × FI_H with the two-colour category: (m, n) goes to the
    block string a^m b^n, morphism pairs to block-form coloured morphisms."""
    left = product_category(fi_g_direct(G, N), fi_g_direct(H, N))
    right = fi_colored({"a": G, "b": H}, N)
    on_objects, on_morphisms = {}, {}
    for x in left.objects:
        lft, rgt = x[1:-1].split("@")
        on_objects[x] = "a" * int(lft) + "b" * int(rgt)
    for p in left.morphisms:
        lft, rgt = p[1:-1].split("@")
        m1, n1, imgs1, decs1 = parse_dec(lft)
        m2, n2, imgs2, decs2 = parse_dec(rgt)
        imgs = tuple(imgs1) + tuple(n1 + i for i in imgs2)
        decs = decs1 + decs2
        s = "a" * m1 + "b" * m2
        t = "a" * n1 + "b" * n2
        on_morphisms[p] = dec_id(s, t, imgs, decs)
    F = validate_functor(left, right, on_objects, on_morphisms)
    return GhComparison(F, functor_properties(F), left, right)


@dataclass(frozen=True)
class CodomainReport:
    comparison: FinFunctor
    properties: FunctorProperties
    fibration: bool
    cartesian_lifts_are_pullbacks: bool


def codomain_check(C: FinCat, gr: GrothResult = None) -> CodomainReport:
    """Total category of the slices vs the arrow category, plus the fibration
    whose cartesian lifts are pullback squares."""
    M = slice_indexed(C)
    gr = gr if gr is not None else grothendieck(M)
    A = arrow_category(C)
    on_objects = {t: fa[1] for t, fa in gr.obj_of.items()}
    on_morphisms = {}
    for t, tm in gr.mor_of.items():
        k = tm.base_part
        _, f_src = gr.obj_of[gr.total.src[t]]
        _, g = gr.obj_of[gr.total.tgt[t]]
        h_u = tm.fiber_part.split("~")[1]
        pb = pullback(C, Cospan(k, g))
        on_morphisms[t] = _arrow_mid(f_src, C.comp(h_u, pb.leg2), k, g)
    F = validate_functor(gr.total, A, on_objects, on_morphisms)
    props = functor_properties(F)

    try:
        cleaving = choose_cleaving(gr.proj)
    except NotAFibration:
        return CodomainReport(F, props, False, True)
    for (k, b), lift in sorted(cleaving.entries.items()):
        if gr.proj.target.is_identity(k):
            continue
        _, g = gr.obj_of[b]
        fprime = gr.obj_of[gr.total.src[lift]][1]
        h_u = gr.mor_of[lift].fiber_part.split("~")[1]
        pb = pullback(C, Cospan(k, g))
        sq = Square(
            top=C.comp(h_u, pb.leg2),
            left=fprime,
            right=g,
            bottom=k,
        )
        if not is_pullback_square(C, sq):
            return CodomainReport(F, props, True, False)
    return CodomainReport(F, props, True, True)
