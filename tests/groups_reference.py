"""Reference group checks, with their own loops over the string tables:

* ``validate_group`` as it was before the group became its one-object
  groupoid, checking closure, associativity, the unit and inverses; it
  returns the elements, the table, the unit and the inverses that the
  library's ``GroupTable`` held then.
* ``validate_group_hom``, the element and multiplicativity loops that
  checked a homomorphism before ``functors.validate_functor`` did.
* ``validate_right_action`` and ``validate_twisted_action``, the action,
  unit and law loops that checked an action before
  ``indexed.validate_indexed`` did; the second lists every failure.
* ``twisted_from_surjection``, the kernel, action and phi that a section
  gives, by the products that built them before ``groth.straighten`` did.

They are kept only as the oracles for the differentials in
``test_groups_reference.py`` and import nothing private from ``fibcat``,
so they share no code with the checks they test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from fibcat.groups import NotAGroup, NotAHomomorphism, NotAnAction


def validate_group(elements, mult, unit=None):
    """Check closure, associativity, the unit (found when not given) and
    inverses of ``mult``, a map (a, b) -> ab.  Elements are strings."""
    els = tuple(sorted(elements))
    if len(set(els)) != len(els):
        raise NotAGroup("duplicate elements")
    table = dict(mult)
    for a in els:
        for b in els:
            c = table.get((a, b))
            if c is None:
                raise NotAGroup("product (%r, %r) missing" % (a, b))
            if c not in set(els):
                raise NotAGroup("product (%r, %r) leaves the set" % (a, b))
    for a in els:
        for b in els:
            for c in els:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    raise NotAGroup(("associativity", a, b, c))
    if unit is None:
        unit = next(
            (e for e in els if all(table[(e, a)] == a == table[(a, e)] for a in els)),
            None,
        )
        if unit is None:
            raise NotAGroup("no two-sided unit")
    else:
        if unit not in els:
            raise NotAGroup("claimed unit %r is not an element" % (unit,))
        if not all(table[(unit, a)] == a == table[(a, unit)] for a in els):
            raise NotAGroup("claimed unit fails the unit laws")
    inv = {}
    for a in els:
        for b in els:
            if table[(a, b)] == unit and table[(b, a)] == unit:
                inv[a] = b
                break
        else:
            raise NotAGroup(("no inverse", a))
    return els, table, unit, inv


def validate_group_hom(source, target, mapping) -> dict:
    """The mapping, if it sends exactly the source's elements into the
    target and is multiplicative; else ``NotAHomomorphism``."""
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
    return m


def is_automorphism(H, a: dict) -> bool:
    if set(a) != set(H.elements) or set(a.values()) != set(H.elements):
        return False
    return all(a[H.mul(x, y)] == H.mul(a[x], a[y]) for x in H.elements for y in H.elements)


def validate_right_action(G, H, act) -> dict:
    """A strict right action: act[g1·g2] = act[g2]∘act[g1], act[unit] = id;
    else ``NotAnAction``."""
    act = {g: dict(m) for g, m in dict(act).items()}
    for g in G.elements:
        if g not in act or not is_automorphism(H, act[g]):
            raise NotAnAction(("not an automorphism", g))
    if len(act) > len(G.elements):
        raise NotAnAction(("unknown element acts", next(g for g in act if g not in G.inv)))
    if any(act[G.unit][h] != h for h in H.elements):
        raise NotAnAction("unit must act trivially")
    for g1, g2, h in itertools.product(G.elements, G.elements, H.elements):
        if act[G.mul(g1, g2)][h] != act[g2][act[g1][h]]:
            raise NotAnAction(("composition law", g1, g2, h))
    return act


@dataclass(frozen=True)
class TwistedActionReport:
    holds: bool
    aut_failures: tuple
    unit_failures: tuple
    law1_failures: tuple
    law2_failures: tuple


def validate_twisted_action(T) -> TwistedActionReport:
    """Every failure of both twisted-action laws, with witnesses; when an
    element acts by no automorphism, only those."""
    G, H = T.acting, T.acted
    aut_failures = tuple(g for g in G.elements if g not in T.act or not is_automorphism(H, T.act[g]))
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
    for g1, g2 in itertools.product(G.elements, repeat=2):
        p, a12 = T.phi[(g1, g2)], T.act[G.mul(g1, g2)]
        h = next((h for h in H.elements if T.act[g2][T.act[g1][h]] != H.conjugate(a12[h], p)), None)
        if h is not None:
            law1.append((g1, g2, h))
    law2 = [
        (g1, g2, g3)
        for g1, g2, g3 in itertools.product(G.elements, repeat=3)
        if H.mul(T.phi[(G.mul(g3, g2), g1)], T.act[g1][T.phi[(g3, g2)]])
        != H.mul(T.phi[(g3, G.mul(g2, g1))], T.phi[(g2, g1)])
    ]
    holds = not (unit_failures or law1 or law2)
    return TwistedActionReport(holds, (), tuple(unit_failures), tuple(law1), tuple(law2))


def twisted_from_surjection(p, s):
    """The kernel of ``p``, and the action and phi of the twisted action that
    the section ``s`` induces: conjugation through the section, act[g](k) =
    s(g)^-1·k·s(g), and phi(a, b) = s(a·b)^-1·s(a)·s(b)."""
    E, G = p.source, p.target
    kernel = tuple(e for e in E.elements if p.mapping[e] == G.unit)
    act = {g: {k: E.conjugate(k, s[g]) for k in kernel} for g in G.elements}
    phi = {(a, b): E.mul(E.mul(E.inv[s[G.mul(a, b)]], s[a]), s[b]) for a in G.elements for b in G.elements}
    return kernel, act, phi
