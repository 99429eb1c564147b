"""Differential check of ``fibcat.groth`` against the per-pair factor search.

For every morphism of a set of functors, the hom-set bijection in
``is_cartesian`` must give what ``groth_reference`` gives by factoring each
(g, theta) on its own; ``is_fibration`` must give the same ``Check`` and
``choose_cleaving`` the same entries, or raise ``NotAFibration`` with the
same (f, b).  ``straighten`` must refuse a cleaving at the (f, b) the
reference refuses, for the chosen cleaving and for lifts that need not be
cartesian, and otherwise give along every base morphism the functor of the
reference that factors each fiber morphism on its own, and the compositors
and unitors that ``cartesian_factor`` finds one at a time.  The functors
cover fibrations with several cartesian lifts per (f, b), functors that are
not fibrations, and morphisms that fail the bijection by size alone or by
injectivity alone.
"""

import pytest

import groth_reference as ref
from fibcat import NotAFibration, fiber_inclusion, generators, groth, grothendieck, validate_functor
from fibcat.groups import hom_as_functor, validate_group_hom
from test_groth import six_morphism_functors


def _outcome(choose, P):
    try:
        return choose(P).entries
    except NotAFibration as exc:
        return ("NotAFibration", exc.args)


def _arrow_functors(C):
    """The domain and codomain functors of ``arrow_category(C)``; a square
    (u, v) from f to g has the id "f~u~v~g"."""
    A = generators.arrow_category(C)
    parts = {m: m.split("~") for m in A.morphisms}
    return [
        validate_functor(A, C, {f: end[f] for f in A.objects}, {m: p[i] for m, p in parts.items()})
        for end, i in ((C.src, 1), (C.tgt, 2))
    ]


CASES = [
    "delta_fi2_fi2",
    "delta_chain3_square",
    "delta_fi2_terminal",
    "gpow_trivial_3",
    "gpow_z2_3",
    "gpow_z3_2",
    "blocks_2_1",
    "slice_square_poset",
    "slice_fi2",
    "twisted_z4_over_z2",
    "semidirect_z2_on_z3",
    "swap_action",
    "z4_onto_z2",
    "z2_into_z4",
    "six_morphism_q",
    "arrow_fi2_dom_cod",
    "idempotent_to_point",
]


@pytest.fixture(scope="module")
def functors(groth_corpus, z2, z4, idempotent_monoid):
    """Each case's functors, built fresh so that no cache is shared with
    other tests."""
    out = {}
    for name, M, _ in groth_corpus:
        proj = grothendieck(M).proj
        out[name] = [proj] + [fiber_inclusion(proj, x) for x in M.base.objects]
    onto = validate_group_hom(z4, z2, {"0": "0", "1": "1", "2": "0", "3": "1"})
    out["z4_onto_z2"] = [hom_as_functor(onto)]
    out["z2_into_z4"] = [hom_as_functor(validate_group_hom(z2, z4, {"0": "0", "1": "2"}))]
    out["six_morphism_q"] = [six_morphism_functors()[1]]
    out["arrow_fi2_dom_cod"] = _arrow_functors(generators.fi_truncated(2))
    # e;e = e: psi ↦ psi;e has as many values as arguments, but two of them meet
    point = generators.terminal_category()
    out["idempotent_to_point"] = [
        validate_functor(idempotent_monoid, point, {"*": "*"}, {"1": "id", "e": "id"})
    ]
    assert sorted(out) == sorted(CASES)
    return out


@pytest.mark.parametrize("case", CASES)
def test_fibrations_match_reference(functors, case):
    for P in functors[case]:
        assert groth.is_fibration(P) == ref.is_fibration(P)
        assert _outcome(groth.choose_cleaving, P) == _outcome(ref.choose_cleaving, P)
        for phi in P.source.morphisms:
            assert groth.is_cartesian(P, phi) == ref.is_cartesian(P, phi), phi


def _first_refused(P, cleaving):
    """The first (f, b), by f and then b, whose lift the reference finds
    missing, not over f into b or not cartesian; None if there is none."""
    X, A = P.target, P.source
    for f in X.morphisms:
        for b in groth.fiber_objects(P, X.tgt[f]):
            phi = cleaving.entries.get((f, b))
            if phi is None or P.mor(phi) != f or A.tgt[phi] != b or not ref.is_cartesian(P, phi):
                return (f, b)
    return None


def test_reindexing_matches_reference(functors):
    """With the chosen cleaving of each fibration, and with the least and the
    greatest morphism over each (f, b), cartesian or not, as its lift:
    ``straighten`` refuses the cleaving with ``NotAFibration`` at the first
    (f, b) the reference refuses, and otherwise its arrow at every base
    morphism f is the reference's reindexing along f, each compositor
    mu[f, g](c) the factor of lift(f, M(g)(c));lift(g, c) through lift(f;g,
    c) and each unitor eta[x](a) the factor of id_a through lift(id_x, a)."""
    arrows, refused = 0, 0
    for P in (P for Ps in functors.values() for P in Ps):
        X, A, over = P.target, P.source, ref.over_map(P)
        cleavings = [groth.Cleaving(P, {fb: phis[i] for fb, phis in over.items()}) for i in (0, -1)]
        if ref.is_fibration(P):
            cleavings.append(groth.choose_cleaving(P))
        for cleaving in cleavings:
            first = _first_refused(P, cleaving)
            try:
                M = groth.straighten(P, cleaving)
            except NotAFibration as exc:
                assert exc.args == (first,)
                refused += 1
                continue
            assert first is None
            for f in X.morphisms:
                want = ref.reindexing(P, cleaving, f)
                assert (M.arrow_at(f).on_objects, M.arrow_at(f).on_morphisms) == (want.on_objects, want.on_morphisms), f
                arrows += 1
            for (f, g), mu in M.compositors.items():
                x, lift = X.src[f], cleaving.lift
                for c, w in mu.components.items():
                    theta = A.comp(lift(f, M.arrow_at(g).ob(c)), lift(g, c))
                    assert w == ref.cartesian_factor(P, lift(X.comp(f, g), c), X.id_of(x), theta), (f, g, c)
            for x, eta in M.unitors.items():
                for a, w in eta.components.items():
                    assert w == ref.cartesian_factor(P, cleaving.lift(X.id_of(x), a), X.id_of(x), A.id_of(a)), a
    assert (arrows, refused) == (1558, 60)


def test_functors_to_a_point_match_reference(seeded_categories):
    """On each of the 80 seeded random categories C, the functor C → 1:
    phi is cartesian exactly when it is an isomorphism, and every such
    functor is a fibration whose cleaving is the identities."""
    point = generators.terminal_category()
    counts = [0, 0]
    for C in seeded_categories:
        P = validate_functor(C, point, {x: "*" for x in C.objects}, {f: "id" for f in C.morphisms})
        assert groth.is_fibration(P) == ref.is_fibration(P)
        assert _outcome(groth.choose_cleaving, P) == _outcome(ref.choose_cleaving, P)
        for phi in C.morphisms:
            verdict = groth.is_cartesian(P, phi)
            assert verdict == ref.is_cartesian(P, phi) == (phi in C.inverses), phi
            counts[verdict] += 1
    assert min(counts) > 100


def test_cases_are_not_vacuous(functors):
    """The cases hold non-cartesian morphisms, non-fibrations, and (f, b)
    with more than one cartesian lift, so a wrong size test, a wrong
    injectivity test or a later lift would each show."""
    every = [P for Ps in functors.values() for P in Ps]
    morphisms = [(P, phi) for P in every for phi in P.source.morphisms]
    non_cartesian = [m for m in morphisms if not ref.is_cartesian(*m)]
    fibrations = [P for P in every if ref.is_fibration(P)]
    several = [
        P
        for P in fibrations
        for f, b in ref.choose_cleaving(P).entries
        if not P.target.is_identity(f)
        and sum(ref.is_cartesian(P, phi) for phi in ref.over_map(P).get((f, b), ())) > 1
    ]
    assert (len(every), len(morphisms), len(non_cartesian)) == (51, 692, 160)
    assert 0 < len(fibrations) < len(every) and several
