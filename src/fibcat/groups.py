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

A homomorphism is a functor of the groupoids: ``validate_group_hom`` is
one ``functors.validate_functor`` call, and a ``GroupHom`` keeps the
functor it checked, so ``hom_as_functor`` and ``compose_homs`` check
nothing again.  A twisted action is a pseudofunctor from the groupoid of
the acting group to that of the acted one, and a strict action one with
trivial phi: ``twisted_to_indexed`` is one ``indexed.validate_indexed``
call on its arrows, left unchecked, and the only check of either, and the
one place its errors become the group's (``NotAnAction``, with
``Law1Violation`` and ``Law2Violation`` for the two laws).  So no law is
checked here with a loop of its own.  Conversely, in a groupoid every
morphism is cartesian, so a section s of a surjection p with s(e) = e is a
cleaving of p's functor: ``twisted_from_surjection`` is ``groth.straighten``
with it, the kernel is the fiber, and nothing here multiplies elements to
build the action or phi.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    AssociativityViolation,
    CategoryError,
    Check,
    FinCat,
    automorphisms,
    from_cells,
    is_groupoid,
    subcategory,
)
from .functors import (
    FinFunctor,
    NotAFunctor,
    compose_functors,
    enumerate_functors,
    identity_functor,
    validate_functor,
)
from .groth import Cleaving, fiber, grothendieck, straighten
from .indexed import CoherenceViolation, IndexedCat, IndexedError, validate_indexed


class GroupError(CategoryError):
    pass


class NotAGroup(GroupError):
    pass


class NotAHomomorphism(GroupError):
    pass


class NotAnAction(GroupError):
    pass


class Law1Violation(NotAnAction):
    pass


class Law2Violation(NotAnAction):
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


@functools.cache
def trivial_group() -> GroupTable:
    """The group of order one, built once per process."""
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
    """A homomorphism as the functor of the groupoids, checked once, and
    its ``mapping`` of elements, which is that functor's."""

    source: GroupTable
    target: GroupTable
    functor: FinFunctor

    @property
    def mapping(self) -> dict:
        return self.functor.on_morphisms

    def __call__(self, a: str) -> str:
        return self.mapping[a]


def validate_group_hom(source: GroupTable, target: GroupTable, mapping) -> GroupHom:
    """Check that ``mapping`` is a functor of the groupoids, by
    ``validate_functor``, and raise ``NotAHomomorphism`` with its first
    failure.  Elements are strings."""
    S, T = source.category, target.category
    try:
        F = validate_functor(S, T, {S.objects[0]: T.objects[0]}, mapping)
    except NotAFunctor as exc:
        raise NotAHomomorphism(*exc.args) from exc
    return GroupHom(source, target, F)


def compose_homs(f: GroupHom, g: GroupHom) -> GroupHom:
    """f followed by g."""
    return GroupHom(f.source, g.target, compose_functors(f.functor, g.functor))


def identity_hom(G: GroupTable) -> GroupHom:
    return GroupHom(G, G, identity_functor(G.category))


def is_surjective_hom(h: GroupHom) -> bool:
    return set(h.mapping.values()) == set(h.target.elements)


def kernel_subgroup(h: GroupHom) -> GroupTable:
    """The fiber of ``h``'s functor: the elements it sends to the unit."""
    return category_as_group(fiber(h.functor, h.target.category.objects[0]))


def hom_as_functor(h: GroupHom) -> FinFunctor:
    return h.functor


def group_isomorphism(G: GroupTable, H: GroupTable):
    """An isomorphism G→H as a map of elements, or None: the first
    homomorphism of their groupoids, in ``functors.enumerate_functors``'
    order, that keeps the order of every element.  Its kernel holds the
    unit alone, so it is injective, and bijective as |G| = |H|."""
    if len(G) != len(H):
        return None
    g_order, h_order = ({a: K.order_of(a) for a in K.elements} for K in (G, H))
    if sorted(g_order.values()) != sorted(h_order.values()):
        return None
    allowed = {a: [b for b in H.elements if h_order[b] == n] for a, n in g_order.items()}
    F = next(enumerate_functors(G.category, H.category, allowed=allowed), None)
    return None if F is None else F.on_morphisms


def groups_isomorphic(G: GroupTable, H: GroupTable) -> bool:
    return group_isomorphism(G, H) is not None


# ---------------------------------------------------------------------------
# Actions, twisted actions, extensions
# ---------------------------------------------------------------------------


def validate_right_action(G: GroupTable, H: GroupTable, act) -> dict:
    """A strict right action, act[g1·g2] = act[g2]∘act[g1] and act[unit] =
    id, checked as the twisted action with trivial phi by
    ``twisted_to_indexed``.  Elements are strings."""
    T = strict_twisted(G, H, act)
    twisted_to_indexed(T)
    return T.act


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

    ``phi[(g1, g2)]`` intertwines act(g2)∘act(g1) with act(g1·g2) (law 1):

        (h.g1).g2 = phi(g1,g2)^-1 · (h.(g1·g2)) · phi(g1,g2)

    and the family phi satisfies the compatibility law on triples (law 2)

        phi(g3·g2, g1) · (phi(g3,g2).g1) = phi(g3, g2·g1) · phi(g2, g1)

    together with the normalisations phi(e,·) = phi(·,e) = e and act(e) = id.
    These are the laws of a pseudofunctor from the groupoid of ``acting``
    to that of ``acted``, and ``twisted_to_indexed`` checks them as such.
    """

    acting: GroupTable
    acted: GroupTable
    act: dict  # g -> {h -> h.g}
    phi: dict  # (g1, g2) -> element of acted

    def apply(self, g: str, h: str) -> str:
        return self.act[g][h]


def validate_twisted_action(T: TwistedAction) -> Check:
    """Whether ``T`` is a twisted action, by ``twisted_to_indexed``; the
    counterexample of a failure is the ``NotAnAction`` it raises."""
    try:
        twisted_to_indexed(T)
    except NotAnAction as exc:
        return Check(False, exc)
    return Check(True)


def strict_twisted(G: GroupTable, H: GroupTable, act) -> TwistedAction:
    """A strict action packaged as a twisted action with trivial phi,
    checked, like every ``TwistedAction``, where it is used."""
    act = {g: dict(m) for g, m in dict(act).items()}
    return TwistedAction(G, H, act, dict.fromkeys(itertools.product(G.elements, repeat=2), H.unit))


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
    arrows = {g: ({x: x}, dict(m)) for g, m in T.act.items()}
    compositors = {(f, g): {x: p} for (g, f), p in T.phi.items()}
    return base, fiber, arrows, compositors


def twisted_to_indexed(T: TwistedAction) -> IndexedCat:
    """The pseudofunctor of ``T``, by one ``validate_indexed`` call on its
    arrows as bare functors, the only check of a twisted action.  Its
    errors become the group's: a compositor that is no natural
    transformation breaks law 1 (``Law1Violation``), a coherence square law
    2 (``Law2Violation``), and any other failure, of an arrow, of a unit
    law or of an unknown key, raises ``NotAnAction``."""
    base, fiber, arrows, compositors = twisted_indexed_data(T)
    functors = {g: FinFunctor(fiber, fiber, ob, mor) for g, (ob, mor) in arrows.items()}
    try:
        return validate_indexed(base, {base.objects[0]: fiber}, functors, compositors)
    except CoherenceViolation as exc:
        raise (Law1Violation if exc.args[0][0] == "compositor" else Law2Violation)(*exc.args) from exc
    except IndexedError as exc:
        raise NotAnAction(*exc.args) from exc


@dataclass(frozen=True, eq=False)
class Extension:
    """A short exact sequence 1 → K → E → G → 1."""

    total: GroupTable
    proj: GroupHom  # E -> G, surjective
    incl: GroupHom  # K -> E, injective with image ker(proj)


def extension_from_twisted(T: TwistedAction) -> Extension:
    """Total group of the one-object Grothendieck construction of T, whose
    projection functor is the homomorphism onto the acting group."""
    gr = grothendieck(twisted_to_indexed(T))
    E = category_as_group(gr.total)
    proj = GroupHom(E, T.acting, gr.proj)
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
    """The twisted action of the quotient on the kernel that the section s
    induces: ``groth.straighten`` of ``p``'s functor with the cleaving s,
    whose arrow at g is conjugation by s(g), A_g(k) = s(g)^-1·k·s(g), and
    whose mu[b, a] is phi(a, b) = s(a·b)^-1·s(a)·s(b).  Elements are strings.
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
    (e,) = E.category.objects
    M = straighten(p.functor, Cleaving(p.functor, {(g, e): s[g] for g in G.elements}))
    act = {g: M.arrow_at(g).on_morphisms for g in G.elements}
    phi = {(a, b): M.mu(b, a).at(e) for a in G.elements for b in G.elements}
    return TwistedAction(G, kernel_subgroup(p), act, phi)  # the fiber of M


def _fibers(p: GroupHom) -> dict:
    """The elements that ``p`` sends to each element of its target, sorted."""
    fibers = {g: [] for g in p.target.elements}
    for e in p.source.elements:
        fibers[p.mapping[e]].append(e)
    return fibers


def find_homomorphic_section(p: GroupHom):
    """First group-homomorphism section in lexicographic order, or None:
    the first functor of the groupoids, in ``functors.enumerate_functors``'
    order, that sends each element into its fiber under ``p``, which is
    checked already."""
    if not is_surjective_hom(p):
        raise NotSurjective(p.mapping)
    E, G = p.source, p.target
    F = next(enumerate_functors(G.category, E.category, allowed=_fibers(p)), None)
    return None if F is None else GroupHom(G, E, F)


def is_split(p: GroupHom) -> bool:
    return find_homomorphic_section(p) is not None
