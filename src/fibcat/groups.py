"""Finite groups, twisted actions, and group extensions.

A group is its one-object groupoid: ``GroupTable.category``, the category on
one object whose morphisms are the elements, is all a group keeps, and its
multiplication and inverses are read off the cells.  Group multiplication
is written in composition order: ``mul(a, b)`` is "apply b, then a", so a
then b in the groupoid is ``mul(b, a)``.  ``validate_group`` codes a table
once and ``core.from_cells`` decides the unit laws and associativity on it,
like every category's; the bridges from a category that is already checked
(``category_as_group``, ``automorphism_group``, ``kernel_subgroup``) check
nothing again.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import AssociativityViolation, CategoryError, FinCat, automorphisms, from_cells, is_groupoid, subcategory
from .functors import validate_functor
from .groth import grothendieck
from .indexed import validate_indexed


class GroupError(CategoryError):
    pass


class NotAGroup(GroupError):
    pass


class NotAHomomorphism(GroupError):
    pass


class NotAnAction(GroupError):
    pass


class Law1Violation(GroupError):
    pass


class Law2Violation(GroupError):
    pass


class NotSurjective(GroupError):
    pass


class NotASection(GroupError):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class GroupTable:
    """A finite group as its one-object groupoid ``category``, whose
    morphisms are the sorted ``elements`` and whose identity is ``unit``;
    the code of each element is its place in ``elements``.  ``mult``, the
    map (a, b) -> ab, and ``inv``, each element's inverse, are read off the
    cells of ``category`` when first used."""

    elements: tuple
    unit: str
    category: FinCat

    @functools.cached_property
    def mult(self) -> dict:
        coding = self.category.coding
        made = coding.cells.reshape(len(self.elements), -1).T  # made[a, b]: b then a
        products = map(coding.ids.__getitem__, made.ravel().tolist())
        return dict(zip(itertools.product(self.elements, repeat=2), products))

    @functools.cached_property
    def inv(self) -> dict:
        return dict(zip(self.elements, map(self.elements.__getitem__, self.category.coding.inverse.tolist())))

    def mul(self, a: str, b: str) -> str:
        return self.mult[(a, b)]

    def inv_of(self, a: str) -> str:
        return self.inv[a]

    def order_of(self, a: str) -> int:
        n, x = 1, a
        while x != self.unit:
            x = self.mul(x, a)
            n += 1
        return n

    def conjugate(self, a: str, by: str) -> str:
        return self.mul(self.mul(self.inv[by], a), by)

    def is_abelian(self) -> bool:
        return all(
            self.mult[(a, b)] == self.mult[(b, a)]
            for a in self.elements
            for b in self.elements
        )

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "GroupTable(order %d)" % len(self.elements)


def validate_group(elements, mult, unit=None) -> GroupTable:
    """Check closure, associativity, the unit (found when not given) and
    inverses of ``mult``, a map (a, b) -> ab, and raise ``NotAGroup`` for
    the first that fails, in that order.  Elements are strings.

    Closure is checked pair by pair as the table is coded, and the unit is
    searched for on the codes; then ``core.from_cells`` decides the unit
    laws and associativity of the groupoid, and its inverses are read off
    the coding.  When the groupoid is not associative, or there is no unit,
    a rescan of the codes names the failure."""
    els = tuple(sorted(elements))
    if len(set(els)) != len(els):
        raise NotAGroup("duplicate elements")
    place, table = {e: i for i, e in enumerate(els)}, dict(mult)
    for a in els:
        for b in els:
            c = table.get((a, b))
            if c is None:
                raise NotAGroup("product (%r, %r) missing" % (a, b))
            if c not in place:
                raise NotAGroup("product (%r, %r) leaves the set" % (a, b))
    n = len(els)
    product = np.array([place[table[(a, b)]] for a in els for b in els], np.int32).reshape(n, n)  # [a, b]: ab
    units = np.flatnonzero((product == np.arange(n)).all(1) & (product.T == np.arange(n)).all(1))
    if unit is None and units.size:
        unit = els[units[0]]
    if unit in els and place[unit] in units:
        try:
            C = from_cells({"*": unit}, {("*", "*"): els}, lambda coding: np.copyto(coding.cells, product.T.ravel()))
        except AssociativityViolation:
            pass
        else:
            bad = np.flatnonzero(C.coding.inverse < 0)
            if bad.size:
                raise NotAGroup(("no inverse", els[bad[0]]))
            return GroupTable(els, unit, C)
    for a, row in enumerate(product):
        bad = product[row] != row[product]  # bad[b, c]: (ab)c differs from a(bc)
        if bad.any():
            b, c = np.argwhere(bad)[0].tolist()
            raise NotAGroup(("associativity", els[a], els[b], els[c]))
    if unit is None:
        raise NotAGroup("no two-sided unit")
    if unit not in els:
        raise NotAGroup("claimed unit %r is not an element" % (unit,))
    raise NotAGroup("claimed unit fails the unit laws")


def trivial_group() -> GroupTable:
    return validate_group(["e"], {("e", "e"): "e"}, "e")


def cyclic_group(n: int) -> GroupTable:
    els = [str(i) for i in range(n)]
    mult = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    return validate_group(els, mult, "0")


def symmetric_group(n: int) -> GroupTable:
    """S_n with elements written as image words, e.g. "102" swaps 0 and 1."""
    perms = ["".join(map(str, p)) for p in itertools.permutations(range(n))]
    mult = {}
    for a in perms:
        for b in perms:
            # composition order: apply b first, then a
            mult[(a, b)] = "".join(a[int(ch)] for ch in b)
    return validate_group(perms, mult)


def group_as_category(G: GroupTable) -> FinCat:
    """The one-object groupoid of ``G``, which is ``G.category``."""
    return G.category


def category_as_group(C: FinCat) -> GroupTable:
    """The group of a one-object groupoid, which is checked already."""
    if len(C.objects) != 1 or not is_groupoid(C):
        raise NotAGroup("not a one-object groupoid")
    return GroupTable(C.morphisms, C.identity[C.objects[0]], C)


def automorphism_group(C: FinCat, x: str) -> GroupTable:
    """The isomorphisms x→x under composition, cut out of ``C``."""
    return category_as_group(subcategory(C, [x], automorphisms(C, x)))


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupHom:
    source: GroupTable
    target: GroupTable
    mapping: dict

    def __call__(self, a: str) -> str:
        return self.mapping[a]


def validate_group_hom(source: GroupTable, target: GroupTable, mapping) -> GroupHom:
    """Check that ``mapping`` sends exactly the source's elements into the
    target and is multiplicative.  Elements are strings."""
    m = dict(mapping)
    for a in source.elements:
        if a not in m:
            raise NotAHomomorphism(("element not mapped", a))
        if m[a] not in set(target.elements):
            raise NotAHomomorphism(("image unknown", a, m[a]))
    if len(m) > len(source.elements):
        unknown = next(a for a in m if a not in source.inv)
        raise NotAHomomorphism(("unknown element mapped", unknown))
    for a in source.elements:
        for b in source.elements:
            if m[source.mul(a, b)] != target.mul(m[a], m[b]):
                raise NotAHomomorphism(("multiplicativity", a, b))
    return GroupHom(source, target, m)


def compose_homs(f: GroupHom, g: GroupHom) -> GroupHom:
    """f followed by g."""
    return validate_group_hom(
        f.source, g.target, {a: g.mapping[b] for a, b in f.mapping.items()}
    )


def identity_hom(G: GroupTable) -> GroupHom:
    return GroupHom(G, G, {a: a for a in G.elements})


def is_surjective_hom(h: GroupHom) -> bool:
    return set(h.mapping.values()) == set(h.target.elements)


def kernel_subgroup(h: GroupHom) -> GroupTable:
    """The elements that ``h`` sends to the unit, cut out of the source's
    groupoid."""
    S = h.source.category
    ker = [a for a in h.source.elements if h.mapping[a] == h.target.unit]
    return category_as_group(subcategory(S, S.objects, ker))


def hom_as_functor(h: GroupHom):
    S, T = group_as_category(h.source), group_as_category(h.target)
    return validate_functor(S, T, {S.objects[0]: T.objects[0]}, dict(h.mapping))


def group_isomorphism(G: GroupTable, H: GroupTable):
    """An isomorphism G→H found by backtracking, or None.

    Candidates are pruned by element order, which keeps the search fast for
    the small groups handled here.
    """
    if len(G) != len(H):
        return None
    g_order = {a: G.order_of(a) for a in G.elements}
    h_by_order = {}
    for b in H.elements:
        h_by_order.setdefault(H.order_of(b), []).append(b)
    if sorted(g_order.values()) != sorted(
        o for o, bs in h_by_order.items() for _ in bs
    ):
        return None
    gs = sorted(G.elements)

    def extend(i, mapping, used):
        if i == len(gs):
            return dict(mapping)
        a = gs[i]
        if a in mapping:
            return extend(i + 1, mapping, used)
        for b in h_by_order.get(g_order[a], ()):
            if b in used:
                continue
            new = dict(mapping)
            new[a] = b
            ok = True
            # close under products with everything already assigned
            frontier = [a]
            while frontier and ok:
                x = frontier.pop()
                for y in list(new):
                    for p, q in ((x, y), (y, x)):
                        pq = G.mul(p, q)
                        img = H.mul(new[p], new[q])
                        if pq in new:
                            if new[pq] != img:
                                ok = False
                                break
                        else:
                            if img in set(new.values()):
                                ok = False
                                break
                            new[pq] = img
                            frontier.append(pq)
                    if not ok:
                        break
            if ok:
                res = extend(i + 1, new, set(new.values()))
                if res is not None:
                    return res
        return None

    return extend(0, {G.unit: H.unit}, {H.unit})


def groups_isomorphic(G: GroupTable, H: GroupTable) -> bool:
    return group_isomorphism(G, H) is not None


# ---------------------------------------------------------------------------
# Actions, twisted actions, extensions
# ---------------------------------------------------------------------------


def _check_automorphism(H: GroupTable, a: dict) -> bool:
    if set(a) != set(H.elements) or set(a.values()) != set(H.elements):
        return False
    return all(
        a[H.mul(x, y)] == H.mul(a[x], a[y]) for x in H.elements for y in H.elements
    )


def validate_right_action(G: GroupTable, H: GroupTable, act) -> dict:
    """A strict right action: act[g1·g2] = act[g2]∘act[g1], act[unit] = id.
    Elements are strings."""
    act = {g: dict(m) for g, m in dict(act).items()}
    for g in G.elements:
        if g not in act or not _check_automorphism(H, act[g]):
            raise NotAnAction(("not an automorphism", g))
    if len(act) > len(G.elements):
        raise NotAnAction(("unknown element acts", next(g for g in act if g not in G.inv)))
    if any(act[G.unit][h] != h for h in H.elements):
        raise NotAnAction("unit must act trivially")
    for g1 in G.elements:
        for g2 in G.elements:
            for h in H.elements:
                if act[G.mul(g1, g2)][h] != act[g2][act[g1][h]]:
                    raise NotAnAction(("composition law", g1, g2, h))
    return act


def semidirect(G: GroupTable, H: GroupTable, act) -> GroupTable:
    """Semidirect product for a strict right action of G on H.

    Elements are pairs (g, h); multiplication twists the H part through the
    action: (g1, h1)·(g2, h2) = (g1g2, (h1.g2)·h2).
    """
    act = validate_right_action(G, H, act)
    enc = {(g, h): "(%s,%s)" % (g, h) for g in G.elements for h in H.elements}
    mult = {}
    for (g1, h1), e1 in enc.items():
        for (g2, h2), e2 in enc.items():
            mult[(e1, e2)] = enc[(G.mul(g1, g2), H.mul(act[g2][h1], h2))]
    return validate_group(enc.values(), mult, enc[(G.unit, H.unit)])


@dataclass(frozen=True, eq=False)
class TwistedAction:
    """A right action of ``acting`` on ``acted`` that holds up to conjugation.

    ``phi[(g1, g2)]`` intertwines act(g2)∘act(g1) with act(g1·g2):

        (h.g1).g2 = phi(g1,g2)^-1 · (h.(g1·g2)) · phi(g1,g2)

    and the family phi satisfies the compatibility law on triples

        phi(g3·g2, g1) · (phi(g3,g2).g1) = phi(g3, g2·g1) · phi(g2, g1)

    together with the normalisations phi(e,·) = phi(·,e) = e and act(e) = id.
    """

    acting: GroupTable
    acted: GroupTable
    act: dict  # g -> {h -> h.g}
    phi: dict  # (g1, g2) -> element of acted

    def apply(self, g: str, h: str) -> str:
        return self.act[g][h]


@dataclass(frozen=True)
class TwistedActionReport:
    holds: bool
    aut_failures: tuple
    unit_failures: tuple
    law1_failures: tuple
    law2_failures: tuple

    def __bool__(self):
        return self.holds


def validate_twisted_action(T: TwistedAction) -> TwistedActionReport:
    """Exhaustively verify both twisted-action laws; failures carry witnesses."""
    G, H = T.acting, T.acted
    aut_failures = tuple(
        g for g in G.elements if g not in T.act or not _check_automorphism(H, T.act[g])
    )
    if aut_failures:
        return TwistedActionReport(False, aut_failures, (), (), ())
    unit_failures = []
    if any(T.act[G.unit][h] != h for h in H.elements):
        unit_failures.append(("act", G.unit))
    for g in G.elements:
        if T.phi[(G.unit, g)] != H.unit:
            unit_failures.append(("phi", G.unit, g))
        if T.phi[(g, G.unit)] != H.unit:
            unit_failures.append(("phi", g, G.unit))
    law1 = []
    for g1 in G.elements:
        for g2 in G.elements:
            p = T.phi[(g1, g2)]
            a12 = T.act[G.mul(g1, g2)]
            for h in H.elements:
                lhs = T.act[g2][T.act[g1][h]]
                rhs = H.mul(H.mul(H.inv[p], a12[h]), p)
                if lhs != rhs:
                    law1.append((g1, g2, h))
                    break
    law2 = []
    for g1 in G.elements:
        for g2 in G.elements:
            for g3 in G.elements:
                lhs = H.mul(T.phi[(G.mul(g3, g2), g1)], T.act[g1][T.phi[(g3, g2)]])
                rhs = H.mul(T.phi[(g3, G.mul(g2, g1))], T.phi[(g2, g1)])
                if lhs != rhs:
                    law2.append((g1, g2, g3))
    holds = not (unit_failures or law1 or law2)
    return TwistedActionReport(holds, (), tuple(unit_failures), tuple(law1), tuple(law2))


def require_twisted_action(T: TwistedAction) -> None:
    report = validate_twisted_action(T)
    if report.law1_failures:
        raise Law1Violation(report.law1_failures[0])
    if report.law2_failures:
        raise Law2Violation(report.law2_failures[0])
    if not report.holds:
        raise NotAnAction((report.aut_failures, report.unit_failures))


def strict_twisted(G: GroupTable, H: GroupTable, act) -> TwistedAction:
    """A strict action packaged as a twisted action with trivial phi."""
    act = validate_right_action(G, H, act)
    phi = {(a, b): H.unit for a in G.elements for b in G.elements}
    return TwistedAction(G, H, act, phi)


def trivial_action(G: GroupTable, H: GroupTable) -> dict:
    return {g: {h: h for h in H.elements} for g in G.elements}


def inversion_action(G: GroupTable, H: GroupTable) -> dict:
    """The nontrivial element(s) of G act by inversion; needs H abelian and
    G of exponent 2 to be an action."""
    return {
        g: {h: (h if g == G.unit else H.inv[h]) for h in H.elements}
        for g in G.elements
    }


def twisted_indexed_data(T: TwistedAction):
    """Raw one-object indexed-category data for a twisted action.

    The compositor for the composable pair (f, g) has the single component
    phi[(g, f)]: with composition order f-then-g the composite is the product
    g·f, and phi is indexed so that phi[(g1, g2)] intertwines toward
    act(g1·g2).
    """
    base = group_as_category(T.acting)
    fiber = group_as_category(T.acted)
    (x,) = fiber.objects  # "*" for a group made by ``validate_group``
    arrows = {g: ({x: x}, dict(T.act[g])) for g in T.acting.elements}
    compositors = {
        (f, g): {x: T.phi[(g, f)]}
        for f in T.acting.elements
        for g in T.acting.elements
    }
    return base, fiber, arrows, compositors


def twisted_to_indexed(T: TwistedAction):
    require_twisted_action(T)
    base, fiber, arrows, compositors = twisted_indexed_data(T)
    arrow_functors = {
        g: validate_functor(fiber, fiber, ob, mor) for g, (ob, mor) in arrows.items()
    }
    return validate_indexed(base, {base.objects[0]: fiber}, arrow_functors, compositors)


@dataclass(frozen=True, eq=False)
class Extension:
    """A short exact sequence 1 → K → E → G → 1."""

    total: GroupTable
    proj: GroupHom  # E -> G, surjective
    incl: GroupHom  # K -> E, injective with image ker(proj)


def extension_from_twisted(T: TwistedAction) -> Extension:
    """Total group of the one-object Grothendieck construction of T."""
    gr = grothendieck(twisted_to_indexed(T))
    E = category_as_group(gr.total)
    proj = validate_group_hom(
        E, T.acting, {m: gr.mor_of[m].base_part for m in E.elements}
    )
    (x,) = group_as_category(T.acted).objects
    incl = validate_group_hom(T.acted, E, {h: gr.mor_id[(T.acting.unit, h, x)] for h in T.acted.elements})
    if len(set(incl.mapping.values())) != len(T.acted):
        raise GroupError("inclusion not injective")
    ker = {e for e in E.elements if proj.mapping[e] == T.acting.unit}
    if ker != set(incl.mapping.values()):
        raise GroupError("exactness fails")
    if not is_surjective_hom(proj):
        raise NotSurjective("projection not surjective")
    return Extension(E, proj, incl)


def twisted_from_surjection(p: GroupHom, s) -> TwistedAction:
    """Twisted action of the quotient on the kernel induced by a section.

    The action is conjugation through the section, A_g(k) = s(g)^-1·k·s(g),
    and phi(a, b) = s(a·b)^-1·s(a)·s(b).  Elements are strings.
    """
    if not is_surjective_hom(p):
        raise NotSurjective(p.mapping)
    E, G = p.source, p.target
    s = dict(s)
    for g in G.elements:
        if g not in s or p.mapping.get(s[g]) != g:
            raise NotASection(g)
    if len(s) > len(G.elements):
        raise NotASection(("section of unknown element", next(g for g in s if g not in G.inv)))
    if s[G.unit] != E.unit:
        raise NotASection("section must send the unit to the unit")
    K = kernel_subgroup(p)
    kset = set(K.elements)
    act = {}
    for g in G.elements:
        m = {}
        for k in K.elements:
            v = E.mul(E.mul(E.inv[s[g]], k), s[g])
            assert v in kset
            m[k] = v
        act[g] = m
    phi = {}
    for a in G.elements:
        for b in G.elements:
            v = E.mul(E.mul(E.inv[s[G.mul(a, b)]], s[a]), s[b])
            assert v in kset
            phi[(a, b)] = v
    return TwistedAction(G, K, act, phi)


def sections_of(p: GroupHom):
    """All set-theoretic sections with s(unit) = unit, in lexicographic order."""
    G = p.target
    fibers = {
        g: sorted(e for e in p.source.elements if p.mapping[e] == g)
        for g in G.elements
    }
    others = sorted(g for g in G.elements if g != G.unit)
    for choice in itertools.product(*(fibers[g] for g in others)):
        s = {G.unit: p.source.unit}
        s.update(dict(zip(others, choice)))
        yield s


def find_homomorphic_section(p: GroupHom):
    """First group-homomorphism section in lexicographic order, or None."""
    if not is_surjective_hom(p):
        raise NotSurjective(p.mapping)
    E, G = p.source, p.target
    for s in sections_of(p):
        if all(
            s[G.mul(a, b)] == E.mul(s[a], s[b])
            for a in G.elements
            for b in G.elements
        ):
            return validate_group_hom(G, E, s)
    return None


def is_split(p: GroupHom) -> bool:
    return find_homomorphic_section(p) is not None


# ---------------------------------------------------------------------------
# Intertwining elements (natural transformations between homomorphisms)
# ---------------------------------------------------------------------------


def intertwiner_check(alpha: str, f: GroupHom, k: GroupHom) -> bool:
    """alpha·f(g) = k(g)·alpha for every g."""
    H = f.target
    return all(
        H.mul(alpha, f.mapping[g]) == H.mul(k.mapping[g], alpha)
        for g in f.source.elements
    )


def intertwiner_hcompose(alpha2: str, alpha1: str, k2: GroupHom) -> str:
    """Horizontal composite k2(alpha1)·alpha2, intertwining the composites."""
    return k2.target.mul(k2.mapping[alpha1], alpha2)


def intertwiner_vcompose(beta: str, alpha: str, H: GroupTable) -> str:
    """Vertical composite is just the product beta·alpha."""
    return H.mul(beta, alpha)
