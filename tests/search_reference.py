"""Reference functor searches: the three searches the library ran before
``functors.enumerate_functors`` became its one functor search, with their
bodies as they were.

* ``search_pushforward`` and ``search_witness``: the witness search of
  ``fibcat.theorem``, which took the full product of hom-set choices over the
  fiber's morphisms and ran ``validate_functor`` on every candidate, one
  budget unit per candidate.
* ``find_homomorphic_section``: every set section of ``sections_of``, each
  checked with a |G|² loop.  ``sections_of`` lists them in lexicographic
  order; the library no longer has it.
* ``group_isomorphism``: a backtrack over elements sorted by id, pruned by
  element order and closed under products.

They are kept only as the oracles for ``test_search_reference.py`` and import
nothing private from ``fibcat``, so they share no code with the enumerator
they test.
"""

from __future__ import annotations

import itertools

from fibcat.core import CategoryError
from fibcat.functors import compose_functors, identity_functor, validate_functor, validate_nat_trans
from fibcat.groups import NotSurjective, is_surjective_hom, validate_group_hom
from fibcat.limits import preserves_weak_pushouts
from fibcat.theorem import SearchBudgetExceeded, WeakReversibilityWitness, WitnessInvalid


def search_pushforward(M, f: str, budget: list):
    """Bounded exhaustive search for a valid (pushforward, unit) pair."""
    base = M.base
    x, y = base.src[f], base.tgt[f]
    fib_x, fib_y = M.fiber_at(x), M.fiber_at(y)
    Mf = M.arrow_at(f)
    id_x = identity_functor(fib_x)
    forced = {}
    for b in fib_y.objects:
        a = Mf.ob(b)
        if forced.setdefault(a, b) != b:
            return None  # M(f) identifies objects: no pushforward can undo it
    free = [a for a in fib_x.objects if a not in forced]
    for images in itertools.product(fib_y.objects, repeat=len(free)):
        ob = dict(forced)
        ob.update(zip(free, images))
        mor_choices = [fib_y.hom(ob[fib_x.src[m]], ob[fib_x.tgt[m]]) for m in fib_x.morphisms]
        if any(not c for c in mor_choices):
            continue
        for assignment in itertools.product(*mor_choices):
            budget[0] -= 1
            if budget[0] < 0:
                raise SearchBudgetExceeded(f)
            mor = dict(zip(fib_x.morphisms, assignment))
            try:
                push = validate_functor(fib_x, fib_y, ob, mor)
            except CategoryError:
                continue
            if not preserves_weak_pushouts(push):
                continue
            comp = compose_functors(push, Mf)
            unit_choices = [fib_x.hom(a, comp.ob(a)) for a in fib_x.objects]
            if any(not c for c in unit_choices):
                continue
            for unit in itertools.product(*unit_choices):
                comps = dict(zip(fib_x.objects, unit))
                try:
                    validate_nat_trans(id_x, comp, comps)
                except CategoryError:
                    continue
                return push, comps
    return None


def search_witness(M, budget: int = 50_000) -> WeakReversibilityWitness:
    """Exhaustive fallback when no witness is supplied; heavily size-capped."""
    budget_box = [budget]
    pushforwards, units = {}, {}
    for f in M.base.morphisms:
        found = search_pushforward(M, f, budget_box)
        if found is None:
            raise WitnessInvalid(("no pushforward found by search", f))
        pushforwards[f], units[f] = found
    return WeakReversibilityWitness(pushforwards, units)


def sections_of(p):
    """All set-theoretic sections with s(unit) = unit, in lexicographic order."""
    G = p.target
    fibers = {g: sorted(e for e in p.source.elements if p.mapping[e] == g) for g in G.elements}
    others = sorted(g for g in G.elements if g != G.unit)
    for choice in itertools.product(*(fibers[g] for g in others)):
        yield {G.unit: p.source.unit, **dict(zip(others, choice))}


def find_homomorphic_section(p):
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


def group_isomorphism(G, H):
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
